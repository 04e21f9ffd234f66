package repro.truss

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{CompactGraph, GraphGen, TriangleComponents}

/** The exact decomposition kernel against known-by-hand structures and the
  * paper's structural facts (k-hulls, layers, anchors).
  */
class LocalTrussSpec extends AnyFunSuite {

  test("clique K_n has trussness n on every edge") {
    for (n <- 3 to 8) {
      val g = TestGraphs.clique(n)
      val r = LocalTruss.decompose(g)
      assert(r.truss.forall(_ == n), s"K$n: ${r.truss.toSeq}")
      assert(r.kMax == n)
    }
  }

  test("triangle-free graphs have trussness 2 everywhere") {
    val g = TestGraphs.cycle(10)
    val r = LocalTruss.decompose(g)
    assert(r.truss.forall(_ == 2))
    assert(r.kMax == 2)
  }

  test("clique with pendant triangle: hand-computed trussness") {
    // K5 on {0..4} plus triangle {4,5,6}: clique edges t=5, the three
    // triangle edges t=3
    val clique = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)
    val g = CompactGraph.fromEdges(clique ++ Seq((4, 5), (4, 6), (5, 6)))
    val r = LocalTruss.decompose(g)
    for (e <- 0 until g.m) {
      val expect = if (g.edgeV(e) >= 5) 3 else 5
      assert(r.truss(e) == expect, s"edge ${g.endpoints(e)}: ${r.truss(e)}")
    }
  }

  test("bowtie cliques: both cliques keep their trussness") {
    val g = TestGraphs.bowtieCliques(5)
    val r = LocalTruss.decompose(g)
    // shared edge (0,1) belongs to both K5s; every edge has trussness 5
    assert(r.truss.forall(_ == 5), r.truss.toSeq.toString)
  }

  test("layers: K4 plus a dangling triangle peels the triangle first") {
    // K4 on {0..3}; triangle {3,4,5}. Triangle edges: trussness 3 layer 1.
    val g = CompactGraph.fromEdges(
      (for (i <- 0 until 4; j <- (i + 1) until 4) yield (i, j)) ++
      Seq((3, 4), (3, 5), (4, 5)))
    val r = LocalTruss.decompose(g)
    for (e <- 0 until g.m if g.edgeV(e) >= 4) {
      assert(r.truss(e) == 3)
      assert(r.layer(e) == 1)
    }
  }

  test("layers: a chain of triangles peels outside-in with increasing layers") {
    // fan: triangles (0,1,2),(0,2,3),(0,3,4): all edges trussness 3; the
    // outermost edges go in earlier layers than the middle ones
    val g = CompactGraph.fromEdges(Seq((0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (3, 4), (0, 4)))
    val r = LocalTruss.decompose(g)
    assert(r.truss.forall(_ == 3))
    val l12 = r.layer(TestGraphs.edgeId(g, 1, 2))
    val l02 = r.layer(TestGraphs.edgeId(g, 0, 2))
    assert(l12 <= l02)
  }

  test("every edge gets exactly one (trussness, layer) and trussness >= 2") {
    for (seed <- 1 to 20) {
      val g = TestGraphs.random(14, 50, seed)
      val r = LocalTruss.decompose(g)
      assert(r.truss.forall(_ >= 2))
      assert(r.layer.forall(_ >= 1))
    }
  }

  test("k-truss property: edges with trussness >= k have support >= k-2 within them") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(14, 50, seed * 3)
      val r = LocalTruss.decompose(g)
      for (k <- 3 to r.kMax) {
        val in = (0 until g.m).filter(r.truss(_) >= k).toSet
        for (e <- in) {
          var sup = 0
          g.foreachTriangle(e)((a, b) => if (in(a) && in(b)) sup += 1)
          assert(sup >= k - 2, s"seed=$seed k=$k edge=$e sup=$sup")
        }
      }
    }
  }

  test("maximality: no edge outside the k-truss could survive within it") {
    // {e : t(e) >= k} must be the whole graph's k-truss, the fixed point of
    // dropping edges one at a time, in a random order, with no sweeps
    val rnd = new scala.util.Random(5)
    val graphs = (1 to 10).map(seed => TestGraphs.random(12, 40, seed * 5)) :+
      TestGraphs.disjointUnion(TestGraphs.random(13, 48, 3), TestGraphs.cycle(5),
                               TestGraphs.random(14, 55, 43)) :+
      GraphGen.graph("college")
    for ((g, gi) <- graphs.zipWithIndex) {
      val masks = Seq(new Array[Boolean](g.m), LocalTruss.anchorMask(g.m, Seq(0, g.m / 2)),
                      Array.fill(g.m)(rnd.nextDouble() < 0.1))
      for ((anchors, i) <- masks.zipWithIndex) {
        val r = LocalTruss.decompose(g, anchors)
        for (k <- 2 to r.kMax + 1) {
          val want = fixedPointTruss(g, k, anchors, rnd.shuffle((0 until g.m).toVector))
          val got = (0 until g.m).filter(r.truss(_) >= k).toSet
          assert(got == want, s"graph $gi mask $i k=$k")
        }
      }
    }
  }

  test("decompose equals a from-scratch sweep-by-sweep reference (trussness and layer)") {
    val rnd = new scala.util.Random(29)
    def noAnchors(g: CompactGraph) = (g, new Array[Boolean](g.m))
    def twoAnchors(g: CompactGraph) = (g, LocalTruss.anchorMask(g.m, Seq(0, g.m / 2)))
    def randomAnchors(g: CompactGraph) = (g, Array.fill(g.m)(rnd.nextDouble() < 0.05))
    val unions = (1 to 2).map(s => TestGraphs.disjointUnion(
      TestGraphs.random(13, 48, s), TestGraphs.cycle(5), TestGraphs.random(14, 55, s + 40)))
    val inputs =
      Seq(TestGraphs.clique(6), TestGraphs.cycle(7), TestGraphs.bowtieCliques(5)).map(noAnchors) ++
      (1 to 4).map(s => noAnchors(TestGraphs.random(14, 45, 23 * s))) ++
      (1 to 3).map(s => twoAnchors(TestGraphs.random(12, 40, 29 * s))) ++
      ((1 to 6).map(s => TestGraphs.random(14, 50, 31 * s)) ++ unions :+ GraphGen.graph("college"))
        .flatMap(g => Seq(noAnchors(g), randomAnchors(g)))
    for (((g, anchors), i) <- inputs.zipWithIndex) {
      val (truss, layer) = reference(g, anchors)
      val r = LocalTruss.decompose(g, anchors)
      val (sameTruss, sameLayer) = (r.truss.sameElements(truss), r.layer.sameElements(layer))
      assert(sameTruss && sameLayer, s"input $i: same truss $sameTruss, same layer $sameLayer")
    }
  }

  test("anchored edges are never removed and report Int.MaxValue trussness") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 40, seed * 7)
      val anchors = LocalTruss.anchorMask(g.m, Seq(0, g.m / 2))
      val r = LocalTruss.decompose(g, anchors)
      assert(r.truss(0) == Int.MaxValue && r.layer(0) == 0)
      assert(r.truss(g.m / 2) == Int.MaxValue)
    }
  }

  test("anchoring never decreases any trussness (monotonicity)") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(12, 40, seed * 11)
      val base = LocalTruss.decompose(g)
      val anchors = LocalTruss.anchorMask(g.m, Seq(seed % g.m))
      val after = LocalTruss.decompose(g, anchors)
      for (e <- 0 until g.m if !anchors(e))
        assert(after.truss(e) >= base.truss(e))
    }
  }

  test("trussGain on a clique is zero; on K5-minus-an-edge anchoring the gap is positive") {
    val k6 = TestGraphs.clique(6)
    val b6 = LocalTruss.decompose(k6)
    assert(LocalTruss.trussGain(k6, b6, LocalTruss.anchorMask(k6.m, Seq(0))) == 0)

    val all = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)
    val g = CompactGraph.fromEdges(all) // K5
    // remove edge (0,1) and instead anchor a re-added one: build K5 minus
    // (0,1), the rest have trussness 4; brute check that anchoring any edge
    // gives a non-negative gain
    val gMinus = CompactGraph.fromEdges(all.filterNot(_ == (0, 1)))
    val base = LocalTruss.decompose(gMinus)
    for (x <- 0 until gMinus.m)
      assert(LocalTruss.trussGain(gMinus, base, LocalTruss.anchorMask(gMinus.m, Seq(x))) >= 0)
    assert(g.m == 10)
  }

  test("peeling each top-level component alone reproduces decompose") {
    val rnd = new scala.util.Random(17)
    val unions = (1 to 4).map { seed =>
      TestGraphs.disjointUnion(TestGraphs.random(13, 48, seed), TestGraphs.random(14, 55, seed + 50),
                               TestGraphs.cycle(6))
    }
    val graphs = (1 to 10).map(seed => TestGraphs.random(14, 50, seed * 17)) ++ unions :+
      GraphGen.graph("college")
    for ((g, i) <- graphs.zipWithIndex) {
      val comps = TriangleComponents(g)
      // the precondition of a component peel: no triangle spans two components
      for (e <- 0 until g.m) g.foreachTriangle(e) { (a, b) =>
        assert(comps.of(a) == comps.of(e) && comps.of(b) == comps.of(e), s"graph $i edge $e")
      }
      if (unions.contains(g))
        assert((0 until comps.count).count(comps.edges(_).length >= 3) >= 2, s"graph $i")
      for (trial <- 0 until 4) {
        val anchors = Array.fill(g.m)(rnd.nextDouble() < 0.04 * trial)
        val full = LocalTruss.decompose(g, anchors)
        val truss = new Array[Int](g.m)
        val layer = new Array[Int](g.m)
        for (c <- 0 until comps.count) LocalTruss.peel(g, comps.edges(c), anchors, truss, layer)
        assert(truss.sameElements(full.truss), s"graph $i trial $trial")
        assert(layer.sameElements(full.layer), s"graph $i trial $trial")
      }
    }
  }

  test("decomposition is deterministic") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(14, 50, seed * 13)
      val r1 = LocalTruss.decompose(g)
      val r2 = LocalTruss.decompose(g)
      assert(r1.truss.sameElements(r2.truss))
      assert(r1.layer.sameElements(r2.layer))
    }
  }

  /** The k-truss with `anchors` kept: starting from every edge, drop any
    * non-anchor edge with fewer than k-2 triangles inside the remaining set,
    * visiting edges in `order` and dropping each at once, until none is left.
    */
  private def fixedPointTruss(g: CompactGraph, k: Int, anchors: Array[Boolean],
                              order: Seq[Int]): Set[Int] = {
    val in = Array.fill(g.m)(true)
    var changed = true
    while (changed) {
      changed = false
      for (e <- order if in(e) && !anchors(e)) {
        var sup = 0
        g.foreachTriangle(e)((a, b) => if (in(a) && in(b)) sup += 1)
        if (sup < k - 2) { in(e) = false; changed = true }
      }
    }
    (0 until g.m).filter(in).toSet
  }

  /** Reference (truss, layer) from the k-truss definition (Cohen 2008) and the
    * paper's sweeps. At the start of every sweep each live edge's support is
    * recounted from the edge list, as its endpoints' common neighbours over
    * live edges; every non-anchor edge with support <= k-2 is then removed at
    * once with (k, sweep), and a sweep that removes nothing ends phase k.
    * Anchors are never removed. Shares no code with `LocalTruss` or
    * `CompactGraph.foreachTriangle`.
    */
  private def reference(g: CompactGraph, anchors: Array[Boolean]): (Array[Int], Array[Int]) = {
    val truss = Array.fill(g.m)(LocalTruss.AnchorTruss)
    val layer = new Array[Int](g.m)
    val alive = Array.fill(g.m)(true)
    var k = 2
    var sweep = 0
    while ((0 until g.m).exists(e => alive(e) && !anchors(e))) {
      val nbrs = Array.fill(g.n)(Set.empty[Int])
      for (e <- 0 until g.m if alive(e)) {
        nbrs(g.edgeU(e)) += g.edgeV(e); nbrs(g.edgeV(e)) += g.edgeU(e)
      }
      val drop = (0 until g.m).filter { e =>
        alive(e) && !anchors(e) && (nbrs(g.edgeU(e)) & nbrs(g.edgeV(e))).size <= k - 2
      }
      if (drop.isEmpty) { k += 1; sweep = 0 }
      else {
        sweep += 1
        for (e <- drop) { alive(e) = false; truss(e) = k; layer(e) = sweep }
      }
    }
    (truss, layer)
  }
}
