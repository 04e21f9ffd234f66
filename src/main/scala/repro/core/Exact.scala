package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.Sweep.sweep
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.math.Ordering.Implicits.seqOrdering

/** The Exact algorithm (Exp-2): exhaustively evaluate every b-subset of
  * edges and return the optimum trussness gain. Exponential — only usable
  * at the paper's Exp-2 scale (extracted subgraphs of 150-250 edges,
  * b ≤ 3). One [[Sweep.sweep]] item per smallest anchor id `i` streams the
  * subsets `{i} ∪ (i+1 until m).combinations(b-1)` and keeps only its best,
  * so memory does not grow with the number of subsets.
  */
object Exact {

  final case class Result(anchors: Seq[Int], gain: Long, combosTried: Long)

  /** Ties on the gain go to the numerically smallest ascending id list. A
    * budget above the edge count anchors every edge, as in [[Greedy]].
    */
  def run(spark: SparkSession, g: CompactGraph, b: Int): Result = {
    require(b >= 0, s"b must be non-negative, got $b")
    val k = math.min(b, g.m)
    val base = LocalTruss.decompose(g)
    def best(subsets: Iterator[IndexedSeq[Int]]): Result = {
      var tried = 0L
      val (gain, ids) = subsets.map { ids =>
        tried += 1
        (LocalTruss.trussGain(g, base, LocalTruss.anchorMask(g.m, ids)), ids)
      }.minBy { case (gain, ids) => (-gain, ids) }
      Result(ids, gain, tried)
    }
    if (k == 0) best(Iterator(IndexedSeq.empty))
    else {
      val bests = sweep(spark, 0 to g.m - k)(i => best((i + 1 until g.m).combinations(k - 1).map(i +: _)))
      bests.minBy(r => (-r.gain, r.anchors)).copy(combosTried = bests.iterator.map(_.combosTried).sum)
    }
  }
}
