package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.Sweep.sweep
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.collection.mutable

/** The greedy framework of the paper in its three incarnations:
  *
  *  - [[base]]   — Algorithm 2: every candidate's trussness gain via a full
  *                 anchored truss decomposition, every round. O(b·m^2.5).
  *  - [[basePlus]] — BASE with Algorithm 3: per-candidate upward-route +
  *                 support-check follower computation.
  *  - [[gas]]    — Algorithm 6: BASE+ plus the truss-component tree and
  *                 cross-round result reuse of Algorithms 4-5.
  *
  * All three run one loop and differ only in their [[Scorer]]. The loop's
  * tie-break (max score, then smallest edge id) makes their anchor
  * sequences comparable edge-for-edge; property tests assert
  * GAS ≡ BASE+ ≡ BASE.
  *
  * The per-round candidate sweep (`for each e ∈ E\A`) is the bulk-parallel
  * part: each scorer evaluates its candidates with [[Sweep.sweep]] on
  * driver threads over the shared [[CompactGraph]]; the greedy selection
  * and (for GAS) the tree/reuse bookkeeping run on the calling thread.
  */
object Greedy {

  /** Per-round bookkeeping: candidates evaluated by the sweep vs fully reused
    * from the cache (GAS), and the round's marginal gain.
    */
  final case class RoundStats(round: Int, anchor: Int, marginalGain: Long,
                              evaluated: Int, reusedFully: Int, millis: Long)

  /** `gain` is the exact final TG(A, G) (Definition 4), measured by one
    * anchored decomposition against the untouched graph — the telescoped
    * per-round follower counts can overstate it when a chosen anchor had
    * itself gained trussness from earlier anchors (it leaves the E\A sum).
    */
  final case class Result(anchors: Seq[Int], gain: Long, rounds: Seq[RoundStats])

  /** How one greedy variant scores a round's candidates. */
  private trait Scorer {
    /** The score of each candidate (aligned with the ascending
      * `candidates`), and how many of them were served wholly from a cache
      * instead of being evaluated.
      */
    def score(candidates: IndexedSeq[Int], anchors: Array[Boolean]): (Array[Long], Int)

    /** Called once `x` is anchored (`anchors` already includes it). */
    def anchored(x: Int, anchors: Array[Boolean]): Unit = ()
  }

  /** The loop of Algorithms 2 and 6: score every non-anchored edge, anchor
    * the best, repeat `b` times (or until every edge is an anchor).
    */
  private def greedy(g: CompactGraph, b: Int)(scorer: Scorer): Result = {
    val anchors = new Array[Boolean](g.m)
    val rounds = (1 to math.min(b, g.m)).map { round =>
      val t0 = System.nanoTime()
      val candidates = (0 until g.m).filterNot(anchors(_))
      val (scores, reused) = scorer.score(candidates, anchors)
      // maxBy keeps the first maximum: the smallest edge id among the best
      val best = scores.indices.maxBy(scores(_))
      val x = candidates(best)
      anchors(x) = true
      scorer.anchored(x, anchors)
      RoundStats(round, x, scores(best), candidates.size - reused, reused,
                 (System.nanoTime() - t0) / 1000000)
    }
    Result(rounds.map(_.anchor), LocalTruss.trussGain(g, LocalTruss.decompose(g), anchors), rounds)
  }

  /** Algorithm 2: full truss decomposition per candidate per round. */
  def base(spark: SparkSession, g: CompactGraph, b: Int): Result =
    greedy(g, b) { (candidates, anchors) =>
      val dec = LocalTruss.decompose(g, anchors)
      val gains = sweep(spark, candidates) { e =>
        val mask = anchors.clone(); mask(e) = true
        LocalTruss.trussGain(g, dec, mask)
      }
      (gains, 0)
    }

  /** BASE with upward-route/support-check follower computation (Alg. 3). */
  def basePlus(spark: SparkSession, g: CompactGraph, b: Int): Result =
    greedy(g, b) { (candidates, anchors) =>
      val dec = LocalTruss.decompose(g, anchors)
      val counts = sweep(spark, candidates) {
        val finder = new FollowerFinder(g)
        e => finder.find(dec.truss, dec.layer, e).count.toLong
      }
      (counts, 0)
    }

  /** Algorithm 6: greedy with tree-based cross-round result reuse. */
  def gas(spark: SparkSession, g: CompactGraph, b: Int): Result =
    greedy(g, b)(new GasScorer(spark, g))

  /** GAS's scorer: per-node follower counts cached across rounds, with only
    * the tree nodes invalidated by the last anchor (Algorithm 5) recomputed.
    *
    * Anchoring `x` changes truss, layer, tree nodes and `sla` only inside
    * comp(x), its top-level triangle component (see [[FollowerReuse]]), so
    * every other edge keeps last round's score and a round re-scans only
    * comp(x)'s edges.
    */
  private final class GasScorer(spark: SparkSession, g: CompactGraph) extends Scorer {
    private var state = FollowerReuse.initial(g, new Array[Boolean](g.m))
    // cachedCount(e)(j): follower count of e within node cachedSla(e)(j),
    // where cachedSla(e) is sla(e) as of e's last evaluation; both null when
    // the whole entry must be recomputed (round 1 or invalidated edge)
    private val cachedSla = new Array[Array[Int]](g.m)
    private val cachedCount = new Array[Array[Int]](g.m)
    // scores(e): e's score as of the last round that re-scanned it
    private val scores = new Array[Long](g.m)
    // node ids invalidated by the last anchor, ascending
    private var staleNodes = Array.empty[Int]
    // edges whose score may have changed since the last round
    private var rescan = Array.range(0, g.m)

    /** e's cached count for node `id`, which must be in cachedSla(e). */
    private def cached(e: Int, id: Int): Int =
      cachedCount(e)(java.util.Arrays.binarySearch(cachedSla(e), id))

    def score(candidates: IndexedSeq[Int], anchors: Array[Boolean]): (Array[Long], Int) = {
      // edges to evaluate, with their stale node ids (null: all of them);
      // the rest are summed from the cache
      val toCompute = mutable.ArrayBuffer.empty[(Int, Array[Int])]
      for (e <- rescan if !anchors(e)) {
        val ids = cachedSla(e)
        if (ids == null) toCompute += ((e, null))
        else {
          val staleIds = state.sla(e).filter(id => has(staleNodes, id) || !has(ids, id))
          if (staleIds.nonEmpty) toCompute += ((e, staleIds))
          else scores(e) = state.sla(e).iterator.map(cached(e, _).toLong).sum
        }
      }
      // each item writes only its own edge's cache entries and score
      sweep(spark, toCompute) {
        val finder = new FollowerFinder(g)
        (item: (Int, Array[Int])) => {
          val (e, staleIds) = item
          val allow: Int => Boolean = if (staleIds == null) null else has(staleIds, _)
          val perNode = finder.find(state.truss, state.layer, e, state.tree.nodeOf, allow).perNode
          val counts = state.sla(e).map(id =>
            if (allow == null || allow(id)) perNode.getOrElse(id, 0) else cached(e, id))
          cachedSla(e) = state.sla(e)
          cachedCount(e) = counts
          scores(e) = counts.iterator.map(_.toLong).sum
        }
      }
      (candidates.iterator.map(scores(_)).toArray, candidates.size - toCompute.size)
    }

    // refresh the tree/decomposition and invalidation info (Algorithm 5)
    override def anchored(x: Int, anchors: Array[Boolean]): Unit = {
      val refresh = FollowerReuse.refresh(g, state, x, anchors)
      state = refresh.state
      staleNodes = refresh.staleNodes.toArray.sorted
      for (e <- refresh.invalidatedEdges.iterator ++ Iterator(x)) {
        cachedSla(e) = null
        cachedCount(e) = null
      }
      rescan = state.tree.comps.edges(state.tree.comps.of(x))
    }
  }

  /** Whether the ascending `ids` contain `id`. */
  private def has(ids: Array[Int], id: Int): Boolean = java.util.Arrays.binarySearch(ids, id) >= 0

  /** Route sizes of every edge in round one (Table IV / the Tur baseline),
    * computed with one [[Sweep.sweep]] over all edges.
    */
  def routeSizes(spark: SparkSession, g: CompactGraph): Array[Int] = {
    val dec = LocalTruss.decompose(g)
    sweep(spark, 0 until g.m) {
      val finder = new FollowerFinder(g)
      e => finder.find(dec.truss, dec.layer, e).routeSize
    }
  }
}
