package repro

import repro.graph.CompactGraph
import scala.util.Random

/** Deterministic small random graphs for property tests. Plain sparse
  * random graphs are nearly triangle-free, so these mix random cliques
  * (truss structure) with random background edges — small analogues of the
  * GraphGen stand-ins.
  */
object TestGraphs {

  /** Triangle-rich random graph with ~`targetEdges` edges on `n` vertices. */
  def random(n: Int, targetEdges: Int, seed: Long): CompactGraph = {
    val rnd = new Random(seed)
    val edges = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    def add(a: Int, b: Int): Unit =
      if (a != b) edges += (if (a < b) (a, b) else (b, a))
    // a few random near-cliques
    val nCliques = 2 + rnd.nextInt(4)
    for (_ <- 0 until nCliques) {
      val size = 3 + rnd.nextInt(5)
      val vs = Array.fill(size)(rnd.nextInt(n))
      for (i <- vs.indices; j <- (i + 1) until vs.length)
        if (rnd.nextDouble() < 0.85) add(vs(i), vs(j))
    }
    // background edges
    var guard = 0
    while (edges.size < targetEdges && guard < targetEdges * 30) {
      guard += 1
      add(rnd.nextInt(n), rnd.nextInt(n))
    }
    CompactGraph.fromEdges(edges)
  }

  /** Disjoint union: `gs(i)`'s vertices are shifted past those of
    * `gs(0 until i)`, so no triangle, and no top-level triangle component,
    * spans two parts.
    */
  def disjointUnion(gs: CompactGraph*): CompactGraph = {
    val offsets = gs.scanLeft(0)(_ + _.n)
    CompactGraph.fromEdges(gs.zip(offsets).flatMap { case (g, off) =>
      (0 until g.m).map(e => (g.edgeU(e) + off, g.edgeV(e) + off))
    })
  }

  /** Complete graph on n vertices (0..n-1). */
  def clique(n: Int): CompactGraph =
    CompactGraph.fromEdges(for (i <- 0 until n; j <- (i + 1) until n) yield (i, j))

  /** Simple cycle on n vertices. */
  def cycle(n: Int): CompactGraph =
    CompactGraph.fromEdges((0 until n).map(i => (i, (i + 1) % n)))

  /** Two k-cliques sharing one edge. */
  def bowtieCliques(k: Int): CompactGraph = {
    val e1 = for (i <- 0 until k; j <- (i + 1) until k) yield (i, j)
    // second clique on vertices {0, 1, k, k+1, ..., 2k-3} shares edge (0,1)
    val vs = Array(0, 1) ++ (k until (2 * k - 2))
    val e2 = for (i <- vs.indices; j <- (i + 1) until vs.length) yield (vs(i), vs(j))
    CompactGraph.fromEdges(e1 ++ e2)
  }

  /** Edge id lookup by endpoints (test convenience). */
  def edgeId(g: CompactGraph, u: Int, v: Int): Int = {
    val (a, b) = if (u < v) (u, v) else (v, u)
    (0 until g.m).find(e => g.edgeU(e) == a && g.edgeV(e) == b)
      .getOrElse(sys.error(s"no edge ($a,$b)"))
  }
}
