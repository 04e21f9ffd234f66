package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import repro.graph.CompactGraph
import scala.reflect.ClassTag

/** The one Spark-parallel primitive of the ATR algorithms: evaluate a
  * function of the graph on every item of a list (candidate edges, random
  * trials, anchor combinations) and collect the results in item order.
  *
  * The graph travels as a broadcast that [[withGraph]] creates once per
  * public call and destroys when the call ends. Anything else a task needs
  * (trussness, layers, tree node ids, an anchor mask) rides in the `perTask`
  * closure, which Spark ships once per stage. Items are split with
  * `parallelize`, so there is no shuffle and no encoder.
  */
object Sweep {

  /** Run `body` with `g` broadcast; the broadcast is destroyed afterwards. */
  def withGraph[R](sc: SparkContext, g: CompactGraph)(body: Broadcast[CompactGraph] => R): R = {
    val gB = sc.broadcast(g)
    try body(gB) finally gB.destroy()
  }

  /** `perTask(graph)` runs once per non-empty task (build task-local
    * workspace there) and returns the per-item function.
    */
  def sweep[A: ClassTag, B: ClassTag](sc: SparkContext, gB: Broadcast[CompactGraph], items: Seq[A])
                                     (perTask: CompactGraph => A => B): Array[B] =
    sc.parallelize(items, sc.defaultParallelism).mapPartitions { it =>
      lazy val f = perTask(gB.value)
      it.map(a => f(a))
    }.collect()
}
