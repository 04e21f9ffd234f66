package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.Sweep.{sweep, withGraph}
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.math.Ordering.Implicits.seqOrdering

/** The Exact algorithm (Exp-2): exhaustively evaluate every b-subset of
  * edges and return the optimum trussness gain. Exponential — only usable
  * at the paper's Exp-2 scale (extracted subgraphs of 150-250 edges,
  * b ≤ 3). Subset evaluation is distributed: each Spark task scores a slice
  * of the combination space with exact anchored decompositions over the
  * broadcast graph.
  */
object Exact {

  final case class Result(anchors: Seq[Int], gain: Long, combosTried: Long)

  /** Ties on the gain go to the numerically smallest ascending id list. */
  def run(spark: SparkSession, g: CompactGraph, b: Int): Result = {
    val base = LocalTruss.decompose(g)
    val combos = (0 until g.m).combinations(b).toIndexedSeq
    val gains = withGraph(spark.sparkContext, g) { gB =>
      sweep(spark.sparkContext, gB, combos) { graph => ids =>
        LocalTruss.trussGain(graph, base, LocalTruss.anchorMask(graph.m, ids))
      }
    }
    val best = combos.indices.minBy(i => (-gains(i), combos(i)))
    Result(combos(best), gains(best), combos.length.toLong)
  }
}
