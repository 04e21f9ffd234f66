package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{CompactGraph, GraphGen, TriangleComponents}
import repro.truss.LocalTruss

/** Lemma 5 / Algorithm 5: after anchoring, every follower result declared
  * reusable must indeed be unchanged against a fresh computation under the
  * new decomposition; everything that did change must be flagged stale.
  */
class FollowerReuseSpec extends AnyFunSuite {

  test("declared-reusable per-node follower counts are actually unchanged") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.random(13, 48, seed * 37 + 5)
      val anchors = new Array[Boolean](g.m)
      val state0 = FollowerReuse.initial(g, anchors)
      val finder = new FollowerFinder(g)

      // record F[e][id] for every candidate before anchoring
      val before = (0 until g.m).map { e =>
        finder.find(state0.truss, state0.layer, e, state0.tree.nodeOf).perNode
      }

      // anchor the greedy-best edge (most realistic for GAS)
      val best = (0 until g.m).maxBy(e => (before(e).values.sum, -e))
      anchors(best) = true
      val refresh = FollowerReuse.refresh(g, state0, best, anchors)
      val s1 = refresh.state

      for (e <- 0 until g.m if !anchors(e) && !refresh.invalidatedEdges.contains(e)) {
        val after = finder.find(s1.truss, s1.layer, e, s1.tree.nodeOf).perNode
        for (id <- s1.sla(e) if !refresh.staleNodes.contains(id)) {
          assert(before(e).getOrElse(id, 0) == after.getOrElse(id, 0),
            s"seed=$seed anchor=$best edge=$e node=$id " +
            s"before=${before(e).getOrElse(id, 0)} after=${after.getOrElse(id, 0)}")
        }
      }
    }
  }

  test("edges whose trussness or layer changed are invalidated") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(13, 48, seed * 41 + 9)
      val anchors = new Array[Boolean](g.m)
      val state0 = FollowerReuse.initial(g, anchors)
      val x = seed % g.m
      anchors(x) = true
      val refresh = FollowerReuse.refresh(g, state0, x, anchors)
      val s1 = refresh.state
      for (e <- 0 until g.m if !anchors(e)) {
        if (s1.truss(e) != state0.truss(e) || s1.layer(e) != state0.layer(e))
          assert(refresh.invalidatedEdges.contains(e), s"seed=$seed e=$e not invalidated")
      }
    }
  }

  test("followers' old and new nodes are both stale") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(13, 48, seed * 43 + 3)
      val anchors = new Array[Boolean](g.m)
      val state0 = FollowerReuse.initial(g, anchors)
      val finder = new FollowerFinder(g)
      val x = (seed * 7) % g.m
      val fx = finder.find(state0.truss, state0.layer, x).followers
      anchors(x) = true
      val refresh = FollowerReuse.refresh(g, state0, x, anchors)
      fx.foreach { f =>
        assert(refresh.staleNodes.contains(state0.tree.nodeOf(f)))
        assert(refresh.staleNodes.contains(refresh.state.tree.nodeOf(f)))
      }
      assert(refresh.staleNodes.contains(state0.tree.nodeOf(x)))
    }
  }

  test("sla is refreshed consistently (matches from-scratch computation)") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.random(13, 48, seed * 47 + 1)
      val anchors = new Array[Boolean](g.m)
      val state0 = FollowerReuse.initial(g, anchors)
      val x = (seed * 3) % g.m
      anchors(x) = true
      val refresh = FollowerReuse.refresh(g, state0, x, anchors)
      val s1 = refresh.state
      val scratch = FollowerReuse.initial(g, anchors)
      for (e <- 0 until g.m) {
        assert(s1.sla(e).toSeq == scratch.sla(e).toSeq, s"seed=$seed e=$e")
        assert(s1.truss(e) == scratch.truss(e))
        assert(s1.layer(e) == scratch.layer(e))
        assert(s1.tree.nodeOf(e) == scratch.tree.nodeOf(e))
      }
    }
    // chained anchors on graphs with several non-trivial components: each
    // refresh must match a from-scratch state under the anchors so far
    val graphs = Seq(
      "union" -> TestGraphs.disjointUnion(TestGraphs.random(13, 48, 48), TestGraphs.random(14, 55, 95),
                                          TestGraphs.random(13, 48, 142)),
      "college" -> GraphGen.graph("college"))
    for ((name, g) <- graphs) {
      val anchors = new Array[Boolean](g.m)
      var state = FollowerReuse.initial(g, anchors)
      for ((x, step) <- chainAnchors(g).zipWithIndex) {
        anchors(x) = true
        state = FollowerReuse.refresh(g, state, x, anchors).state
        val scratch = FollowerReuse.initial(g, anchors)
        val at = s"$name step=$step anchor=$x"
        assert(state.truss.sameElements(scratch.truss), at)
        assert(state.layer.sameElements(scratch.layer), at)
        assert(state.tree.nodeOf.sameElements(scratch.tree.nodeOf), at)
        assert(state.tree.nodes.keySet == scratch.tree.nodes.keySet, at)
        state.tree.nodes.foreach { case (id, n) =>
          val s = scratch.tree.nodes(id)
          assert(n.k == s.k && n.parent == s.parent, s"$at node=$id")
          assert(n.edges.sorted.sameElements(s.edges.sorted), s"$at node=$id")
          assert(n.children.sorted.sameElements(s.children.sorted), s"$at node=$id")
        }
        for (e <- 0 until g.m) assert(state.sla(e).toSeq == scratch.sla(e).toSeq, s"$at e=$e")
      }
    }
  }

  /** Four anchors: three spread over the largest top-level component and
    * one in the second largest, visited in between.
    */
  private def chainAnchors(g: CompactGraph): Seq[Int] = {
    val comps = TriangleComponents(g)
    val Seq(a, b) = (0 until comps.count).map(comps.edges).sortBy(-_.length).take(2)
    Seq(a(a.length / 3), b(b.length / 2), a(2 * a.length / 3), a(0))
  }
}
