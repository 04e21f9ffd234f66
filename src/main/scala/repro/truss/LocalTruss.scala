package repro.truss

import repro.graph.CompactGraph

/** Exact truss decomposition kernel (paper's Algorithm 1) with two
  * extensions the paper relies on:
  *
  *  - **layers**: within each k-hull the peel proceeds in sweeps; `layer(e)`
  *    is the 1-based sweep index in which `e` was removed (the paper's
  *    `l(e)`, Section III-B). A sweep removes every edge whose support was
  *    ≤ k-2 at sweep start; support updates within the sweep feed the *next*
  *    sweep.
  *  - **anchors**: anchored edges have `sup = +∞` conceptually — they are
  *    never removed, keep providing triangles at every phase, and receive
  *    `truss = Int.MaxValue`, `layer = 0` in the output.
  *
  * This is the one truss decomposition: it runs on the calling thread and
  * inside the worker threads of a candidate sweep. Each phase k rescans its
  * edge list once and each removal walks O(deg u + deg v), so a peel costs
  * O(k_max·m + Σ_v deg(v)²). The test suite checks it against a reference
  * that recomputes every support from scratch at each sweep.
  */
object LocalTruss {

  /** `truss(e)` / `layer(e)` per edge; `kMax` = max trussness over
    * non-anchored edges (2 for a triangle-free graph).
    */
  final case class Result(truss: Array[Int], layer: Array[Int], kMax: Int)

  val AnchorTruss: Int = Int.MaxValue

  /** Decompose `g`; edges whose id is in `anchors` are never removed. */
  def decompose(g: CompactGraph, anchors: Array[Boolean] = null): Result = {
    val anch = if (anchors == null) new Array[Boolean](g.m) else anchors
    val truss = new Array[Int](g.m)
    val layer = new Array[Int](g.m)
    val kMax = peel(g, Array.range(0, g.m), anch, truss, layer)
    Result(truss, layer, kMax)
  }

  /** The peel itself, over the edges in `edges` only: writes `truss(e)` and
    * `layer(e)` for every `e` in `edges` and touches no other entry; returns
    * the max trussness over its non-anchored edges (2 if there are none).
    *
    * `edges` must be closed under triangles: every triangle with one edge in
    * `edges` has all three there. Every edge at once, or any union of
    * [[repro.graph.TriangleComponents]], qualifies. Peeling runs in
    * synchronised sweeps, and support changes only along triangles, so each
    * component peels exactly as it would alone: trussness and layer are
    * component-local, and peeling one component reproduces the entries a
    * full decomposition gives it.
    */
  def peel(g: CompactGraph, edges: Array[Int], anch: Array[Boolean],
           truss: Array[Int], layer: Array[Int]): Int = {
    val m = g.m
    val sup = new Array[Int](m)
    val alive = new Array[Boolean](m)
    var aliveNonAnchor = 0
    var i = 0
    while (i < edges.length) {
      val e = edges(i)
      sup(e) = g.support(e)
      alive(e) = true
      if (!anch(e)) aliveNonAnchor += 1
      i += 1
    }
    var kMax = 2
    var k = 2
    // scheduled(e): e is already queued for removal in the current or next
    // sweep, to avoid duplicates in the frontier buffers.
    val scheduled = new Array[Boolean](m)
    val frontier = new java.util.ArrayDeque[Int]()
    val next = new java.util.ArrayDeque[Int]()
    while (aliveNonAnchor > 0) {
      // seed the phase-k frontier with a full scan (once per phase)
      i = 0
      while (i < edges.length) {
        val e = edges(i)
        if (alive(e) && !anch(e) && sup(e) <= k - 2 && !scheduled(e)) {
          frontier.add(e); scheduled(e) = true
        }
        i += 1
      }
      var sweep = 0
      while (!frontier.isEmpty) {
        sweep += 1
        while (!frontier.isEmpty) {
          val x = frontier.poll()
          // remove x: record trussness/layer, cascade support decrements
          truss(x) = k
          layer(x) = sweep
          alive(x) = false
          aliveNonAnchor -= 1
          if (k > kMax) kMax = k
          g.foreachTriangle(x) { (e1, e2) =>
            if (alive(e1) && alive(e2)) {
              sup(e1) -= 1
              sup(e2) -= 1
              if (!anch(e1) && sup(e1) <= k - 2 && !scheduled(e1)) { next.add(e1); scheduled(e1) = true }
              if (!anch(e2) && sup(e2) <= k - 2 && !scheduled(e2)) { next.add(e2); scheduled(e2) = true }
            }
          }
        }
        // edges that dropped during this sweep form the next sweep
        while (!next.isEmpty) frontier.add(next.poll())
      }
      k += 1
    }
    for (e <- edges if anch(e)) { truss(e) = AnchorTruss; layer(e) = 0 }
    kMax
  }

  /** Trussness gain of anchoring `anchors` relative to the base decomposition
    * `base` (paper's Definition 4): Σ over non-anchored edges of the
    * trussness increment.
    */
  def trussGain(g: CompactGraph, base: Result, anchors: Array[Boolean]): Long = {
    val after = decompose(g, anchors)
    var gain = 0L
    var e = 0
    while (e < g.m) {
      if (!anchors(e)) gain += (after.truss(e) - base.truss(e)).toLong
      e += 1
    }
    gain
  }

  /** Convenience: anchor-set from edge ids. */
  def anchorMask(m: Int, ids: Iterable[Int]): Array[Boolean] = {
    val a = new Array[Boolean](m)
    ids.foreach(a(_) = true)
    a
  }
}
