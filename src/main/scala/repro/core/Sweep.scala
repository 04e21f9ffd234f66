package repro.core

import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.sql.SparkSession
import scala.reflect.ClassTag

/** The one parallel primitive of the ATR algorithms: evaluate a function on
  * every item of a list (candidate edges, random trials, anchor
  * combinations) and return the results in item order.
  *
  * It runs on driver threads over the one shared, immutable
  * [[repro.graph.CompactGraph]] that callers close over. Items are cut into
  * static contiguous chunks, one per worker, and each result is written to
  * its item's index, so the output does not depend on the number of workers.
  */
object Sweep {

  /** Sweep on `min(defaultParallelism, availableProcessors)` workers. */
  def sweep[A, B: ClassTag](spark: SparkSession, items: collection.IndexedSeq[A])(perWorker: => A => B): Array[B] =
    sweep(math.min(spark.sparkContext.defaultParallelism, Runtime.getRuntime.availableProcessors),
          items)(perWorker)

  /** Sweep on at most `width` (>= 1) workers, one per non-empty chunk.
    * `perWorker` is evaluated once per worker (build the worker's workspace
    * there) and returns the per-item function. Every worker has ended when
    * this returns or throws; the first exception a worker throws is
    * rethrown as it is.
    */
  private[core] def sweep[A, B: ClassTag](width: Int, items: collection.IndexedSeq[A])(perWorker: => A => B): Array[B] = {
    val n = items.size
    val out = new Array[B](n)
    val t = math.min(width, n)
    val failure = new AtomicReference[Throwable]
    val workers = Array.tabulate(t) { c =>
      new Thread(() =>
        try {
          val f = perWorker
          var i = (c.toLong * n / t).toInt
          val end = ((c + 1).toLong * n / t).toInt
          while (i < end) { out(i) = f(items(i)); i += 1 }
        } catch { case e: Throwable => failure.compareAndSet(null, e) },
        s"sweep-$c")
    }
    try workers.foreach(_.start())
    finally workers.foreach(_.join())
    if (failure.get != null) throw failure.get
    out
  }
}
