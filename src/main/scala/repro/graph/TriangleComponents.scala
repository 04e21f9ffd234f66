package repro.graph

/** The top-level triangle-connected components of a graph: two edges are in
  * one component when a chain of triangles, each sharing an edge with the
  * next, joins them. An edge in no triangle is a component of its own.
  *
  * Every triangle lies inside one component, so support, truss peeling and
  * the truss component tree never look across components. Anchoring an
  * edge leaves the graph, and hence the components, unchanged: this index is
  * computed once per graph and stays valid for every anchor set.
  *
  * @param of      component id of each edge; ids are dense and ordered by
  *                the smallest edge id of each component
  * @param off     offsets into `members`, length `count + 1`
  * @param members edge ids grouped by component, ascending within each
  */
final class TriangleComponents private (
    val of: Array[Int],
    off: Array[Int],
    members: Array[Int],
) {

  /** Number of components. */
  def count: Int = off.length - 1

  /** The edges of component `c`, ascending. */
  def edges(c: Int): Array[Int] = java.util.Arrays.copyOfRange(members, off(c), off(c + 1))
}

object TriangleComponents {

  /** Label the components of `g` by breadth-first search over shared
    * triangles; O(Σ_e (deg(u) + deg(v))).
    */
  def apply(g: CompactGraph): TriangleComponents = {
    val m = g.m
    val of = Array.fill(m)(-1)
    val members = new Array[Int](m)
    val off = new Array[Int](m + 1)
    var n = 0 // edges labelled so far; members(0 until n) is the BFS order
    var c = 0
    var s = 0
    while (s < m) {
      if (of(s) == -1) {
        of(s) = c; members(n) = s; n += 1
        var head = off(c)
        while (head < n) {
          g.foreachTriangle(members(head)) { (a, b) =>
            if (of(a) == -1) { of(a) = c; members(n) = a; n += 1 }
            if (of(b) == -1) { of(b) = c; members(n) = b; n += 1 }
          }
          head += 1
        }
        java.util.Arrays.sort(members, off(c), n)
        c += 1
        off(c) = n
      }
      s += 1
    }
    new TriangleComponents(of, java.util.Arrays.copyOf(off, c + 1), members)
  }
}
