package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.TestGraphs

/** CSR construction invariants and triangle enumeration vs brute force. */
class CompactGraphSpec extends AnyFunSuite {

  test("canonicalization: drops self-loops, duplicates and orients u < v") {
    val g = CompactGraph.fromEdges(Seq((1, 0), (0, 1), (2, 2), (1, 2), (2, 1)))
    assert(g.m == 2)
    assert(g.endpoints(0) == (0, 1))
    assert(g.endpoints(1) == (1, 2))
  }

  test("adjacency runs are sorted and degree-consistent") {
    for (seed <- 1 to 20) {
      val g = TestGraphs.random(15, 60, seed)
      var degSum = 0
      for (u <- 0 until g.n) {
        degSum += g.degree(u)
        val run = (g.adjOff(u) until g.adjOff(u + 1)).map(g.adjV)
        assert(run == run.sorted, s"seed=$seed u=$u run=$run")
        assert(run.distinct == run)
      }
      assert(degSum == 2 * g.m)
    }
  }

  test("edge ids are assigned in sorted (u,v) order") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(15, 60, seed * 3)
      val pairs = (0 until g.m).map(g.endpoints)
      assert(pairs == pairs.sorted)
    }
  }

  test("support equals brute-force common-neighbor count") {
    for (seed <- 1 to 20) {
      val g = TestGraphs.random(12, 45, seed * 7)
      val adj = Array.fill(g.n)(scala.collection.mutable.Set.empty[Int])
      for (e <- 0 until g.m) {
        adj(g.edgeU(e)) += g.edgeV(e); adj(g.edgeV(e)) += g.edgeU(e)
      }
      for (e <- 0 until g.m) {
        val want = (adj(g.edgeU(e)) & adj(g.edgeV(e))).size
        assert(g.support(e) == want)
      }
    }
  }

  test("foreachTriangle yields co-edges that really form a triangle") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(12, 45, seed * 11)
      for (e <- 0 until g.m) {
        g.foreachTriangle(e) { (a, b) =>
          val vs = Set(g.edgeU(e), g.edgeV(e), g.edgeU(a), g.edgeV(a), g.edgeU(b), g.edgeV(b))
          assert(vs.size == 3, s"seed=$seed e=$e a=$a b=$b vs=$vs")
        }
      }
    }
  }

  test("triangle incidence is divisible by 3 on ScalaCheck-random edge lists") {
    val edgeGen = Gen.listOfN(40, Gen.zip(Gen.choose(0, 9), Gen.choose(0, 9)))
    for (s <- 1 to 30) {
      val edges = edgeGen.pureApply(Gen.Parameters.default, Seed(s.toLong))
      val g = CompactGraph.fromEdges(edges)
      // each triangle is counted once per member edge
      val total = (0 until g.m).map(g.support).sum
      assert(total % 3 == 0, s"seed=$s total=$total")
    }
  }

  test("incidentEdges returns each incident edge exactly once") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 40, seed * 13)
      val all = (0 until g.n).flatMap(g.incidentEdges)
      assert(all.size == 2 * g.m)
      assert(all.groupBy(identity).forall(_._2.size == 2))
    }
  }

  test("negative vertex ids are rejected with the offending edge") {
    for ((u, v) <- Seq((-1, 2), (3, -4), (-5, -5)))
      assert(intercept[IllegalArgumentException](CompactGraph.fromEdges(Seq((0, 1), (u, v))))
        .getMessage.contains(s"got edge ($u, $v)"))
  }

  test("empty and tiny graphs") {
    val empty = CompactGraph.fromEdges(Nil)
    assert(empty.m == 0 && empty.n == 0)
    val one = CompactGraph.fromEdges(Seq((0, 1)))
    assert(one.m == 1 && one.n == 2 && one.support(0) == 0)
  }
}
