package atrbench

import java.util.concurrent.{Callable, Executors, TimeUnit}
import repro.core.FollowerFinder
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Outputs the benchmark checks solves against, computed without Spark and
  * without `Greedy`: BASE+ over plain threads, and one-thread follower sweeps.
  */
object Reference {

  /** BASE+ anchors: every round a full decomposition, then Algorithm 3 for
    * every non-anchored edge; the best edge is the one with most followers,
    * ties to the smallest edge id (the tie-break `Greedy` documents).
    */
  def basePlusAnchors(g: CompactGraph, b: Int, threads: Int): Seq[Int] = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val anchors = new Array[Boolean](g.m)
      val picked = mutable.ArrayBuffer.empty[Int]
      val chunk = (g.m + threads - 1) / math.max(threads, 1)
      for (_ <- 0 until math.min(b, g.m)) {
        val dec = LocalTruss.decompose(g, anchors)
        val tasks = (0 until threads).map { t =>
          new Callable[(Int, Int)] {
            def call(): (Int, Int) = {
              val finder = new FollowerFinder(g)
              var bestC = -1; var bestE = -1
              var e = t * chunk
              val end = math.min(g.m, e + chunk)
              while (e < end) {
                if (!anchors(e)) {
                  val c = finder.find(dec.truss, dec.layer, e).count
                  if (c > bestC) { bestC = c; bestE = e }
                }
                e += 1
              }
              (bestC, bestE)
            }
          }
        }
        val best = pool.invokeAll(tasks.asJava).asScala.map(_.get())
          .filter(_._2 >= 0).minBy { case (c, e) => (-c, e) }
        anchors(best._2) = true
        picked += best._2
      }
      picked.toSeq
    } finally {
      pool.shutdownNow()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }

  /** Exact TG(A, G) of an anchor sequence (Definition 4), summed here over
    * the non-anchored edges rather than through `LocalTruss.trussGain`. It
    * shares `LocalTruss.decompose` with the solver, so it cannot catch a
    * wrong decomposition, only a wrong gain sum or wrong plumbing.
    */
  def gain(g: CompactGraph, anchors: Seq[Int]): Long = {
    val anchored = anchors.toSet
    val mask = new Array[Boolean](g.m)
    anchored.foreach(mask(_) = true)
    val before = LocalTruss.decompose(g).truss
    val after = LocalTruss.decompose(g, mask).truss
    (0 until g.m).iterator.filterNot(anchored).map(e => (after(e) - before(e)).toLong).sum
  }

  /** Totals of a one-thread Algorithm-3 sweep over every edge. */
  final case class Sweep(routeSizeSum: Long, followerSum: Long)

  def followerSweep(g: CompactGraph, dec: LocalTruss.Result): Sweep = {
    val finder = new FollowerFinder(g)
    var route = 0L; var count = 0L
    var e = 0
    while (e < g.m) {
      val r = finder.find(dec.truss, dec.layer, e)
      route += r.routeSize; count += r.count
      e += 1
    }
    Sweep(route, count)
  }
}
