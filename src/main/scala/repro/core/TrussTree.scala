package repro.core

import repro.graph.{CompactGraph, TriangleComponents}
import scala.collection.mutable

/** The truss component tree (paper's Algorithm 4 / Table II).
  *
  * Every non-anchored edge belongs to exactly one tree node; all edges of a
  * node share a trussness value `K`, and the subgraph induced by the edges
  * in the subtree rooted at a node is a `K`-truss component (Definition 9).
  * A node's id is the smallest edge id among its own edges, which makes ids
  * deterministic and stable: a node whose edge set is unchanged across a
  * rebuild keeps its id, which is what the GAS reuse bookkeeping keys on.
  *
  * Anchored edges (trussness Int.MaxValue) participate in triangle
  * connectivity at *every* level — an anchor bridging two components merges
  * them, exactly as it does for follower propagation — but belong to no
  * node (`nodeOf = -1`).
  *
  * The roots are the top-level triangle components (`comps`) that hold a
  * non-anchored edge. Anchoring an edge only moves it from member to
  * connector and leaves the components as they are, and trussness is
  * component-local, so [[TrussTree.rebuild]] re-peels only the components
  * it is told changed and carries every other node over verbatim.
  */
final class TrussTree(
    val nodes: Map[Int, TrussTree.Node],
    /** edge id -> tree node id (-1 for anchors) */
    val nodeOf: Array[Int],
    /** the top-level triangle components the roots partition */
    val comps: TriangleComponents,
) {

  /** All edge ids in the subtree rooted at node `id`. */
  def subtreeEdges(id: Int): Array[Int] = {
    val buf = mutable.ArrayBuffer.empty[Int]
    val stack = mutable.Stack(id)
    while (stack.nonEmpty) {
      val n = nodes(stack.pop())
      buf ++= n.edges
      n.children.foreach(stack.push)
    }
    buf.toArray
  }
}

object TrussTree {

  /** A tree node: `id` = smallest member edge id (paper's TN.I), `k` = the
    * shared trussness (TN.K), `edges` = TN.E, `parent` = parent node id or
    * -1 (TN.P), `children` = child node ids (TN.C).
    */
  final case class Node(id: Int, k: Int, edges: Array[Int],
                        parent: Int, children: Array[Int])

  /** Build the full tree for graph `g` under trussness `truss` (paper's
    * Algorithm 4, virtual empty root). Anchors are edges with
    * `truss(e) == Int.MaxValue`.
    */
  def build(g: CompactGraph, truss: Array[Int]): TrussTree = {
    val comps = TriangleComponents(g)
    val nodeOf = Array.fill(g.m)(-1)
    val builder = new Builder(g, truss, nodeOf)
    var c = 0
    while (c < comps.count) { builder.addComponent(comps.edges(c)); c += 1 }
    new TrussTree(builder.result(), nodeOf, comps)
  }

  /** Rebuild the top-level components that contain a `dirty` edge; every
    * other node (and its id) is carried over from `prev` unchanged.
    * Equivalent to `build(g, truss)` when every edge whose trussness or
    * anchor status differs from `prev`'s lies in such a component —
    * asserted by property tests. Walks only the rebuilt components; the
    * other O(m) costs are one copy of `nodeOf` and two zeroed length-m
    * scratch arrays. `prev` is not modified.
    */
  def rebuild(g: CompactGraph, truss: Array[Int], prev: TrussTree,
              dirty: Iterable[Int]): TrussTree = {
    val nodeOf = prev.nodeOf.clone()
    val builder = new Builder(g, truss, nodeOf)
    var nodes = prev.nodes
    for (c <- dirty.iterator.map(prev.comps.of).distinct) {
      val edges = prev.comps.edges(c)
      for (e <- edges) {
        // node ids are their smallest member edge: e heads a node of c
        if (prev.nodeOf(e) == e) nodes -= e
        nodeOf(e) = -1
      }
      builder.addComponent(edges)
    }
    new TrussTree(nodes ++ builder.result(), nodeOf, prev.comps)
  }

  /** Recursive component peeling shared by build and rebuild: each
    * [[addComponent]] call fills `nodeOf` for one top-level component and
    * [[result]] returns the nodes created.
    */
  private final class Builder(g: CompactGraph, truss: Array[Int], nodeOf: Array[Int]) {
    private val inCur = new Array[Boolean](g.m)
    private val uf = new Array[Int](g.m)
    private val out = mutable.HashMap.empty[Int, (Int, Array[Int], Int, mutable.ArrayBuffer[Int])]

    private def find(e: Int): Int = {
      var r = e
      while (uf(r) != r) r = uf(r)
      var c = e
      while (uf(c) != r) { val nxt = uf(c); uf(c) = r; c = nxt }
      r
    }
    private def union(a: Int, b: Int): Unit = {
      val ra = find(a); val rb = find(b)
      if (ra != rb) uf(if (ra < rb) rb else ra) = if (ra < rb) ra else rb
    }

    /** Partition `subset ∪ anchors` into triangle-connected groups; return
      * the groups of non-anchor edges.
      */
    private def components(subset: Array[Int], anchors: Array[Int]): Iterable[Array[Int]] = {
      val all = subset ++ anchors
      all.foreach { e => inCur(e) = true; uf(e) = e }
      all.foreach { e =>
        g.foreachTriangle(e) { (a, b) =>
          if (inCur(a) && inCur(b)) { union(e, a); union(e, b) }
        }
      }
      val groups = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
      subset.foreach(e => groups.getOrElseUpdate(find(e), mutable.ArrayBuffer.empty) += e)
      all.foreach(e => inCur(e) = false)
      groups.values.map(_.toArray)
    }

    /** Peel one top-level component (all its edges, anchors included;
      * Algorithm 4). Its non-anchor edges are triangle-connected through
      * the whole component, so they form one root node's subtree.
      */
    def addComponent(comp: Array[Int]): Unit = {
      val (anchors, members) = comp.partition(truss(_) == Int.MaxValue)
      def go(group: Array[Int], par: Int): Unit = {
        var kMin = Int.MaxValue
        group.foreach(e => if (truss(e) < kMin) kMin = truss(e))
        val (hull, rest) = group.partition(truss(_) == kMin)
        val id = hull.min
        out(id) = (kMin, hull, par, mutable.ArrayBuffer.empty)
        hull.foreach(nodeOf(_) = id)
        if (par != -1) out(par)._4 += id
        if (rest.nonEmpty) components(rest, anchors).foreach(go(_, id))
      }
      if (members.nonEmpty) go(members, -1)
    }

    def result(): Map[Int, Node] =
      out.iterator.map { case (id, (k, edges, par, children)) =>
        id -> Node(id, k, edges, par, children.toArray)
      }.toMap
  }

  /** Subtree-adjacency node ids (paper's `sla(e)`): the tree nodes of all
    * neighbor-edges `e'` of `e` with `t(e') >= t(e)`. Anchored neighbor
    * edges have no node and are skipped (their support effect is not a
    * reuse unit). Returns sorted distinct ids; -1 entries never appear.
    */
  def sla(g: CompactGraph, truss: Array[Int], nodeOf: Array[Int], e: Int): Array[Int] = {
    val te = truss(e)
    val buf = new mutable.ArrayBuilder.ofInt
    g.foreachTriangle(e) { (a, b) =>
      if (truss(a) >= te && truss(a) != Int.MaxValue) buf += nodeOf(a)
      if (truss(b) >= te && truss(b) != Int.MaxValue) buf += nodeOf(b)
    }
    val ids = buf.result()
    java.util.Arrays.sort(ids)
    var n = 0
    for (id <- ids) if (n == 0 || ids(n - 1) != id) { ids(n) = id; n += 1 }
    java.util.Arrays.copyOf(ids, n)
  }
}
