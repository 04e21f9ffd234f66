package repro.core

import org.apache.spark.GraphBroadcasts
import org.scalatest.concurrent.Eventually
import org.scalatest.time.{Seconds, Span}
import repro.{SparkSpec, TestGraphs}

/** Every public entry point that sweeps over a broadcast graph destroys the
  * broadcast before it returns, so a long session does not pile up graph
  * copies in the driver's block store.
  */
class SweepSpec extends SparkSpec with Eventually {

  // Broadcast.destroy() is asynchronous
  implicit override val patienceConfig: PatienceConfig = PatienceConfig(timeout = Span(5, Seconds))

  test("entry points leave no graph broadcast behind") {
    val g = TestGraphs.random(12, 35, 17)
    val calls = Seq[(String, () => Any)](
      "base"           -> (() => Greedy.base(spark, g, 2)),
      "basePlus"       -> (() => Greedy.basePlus(spark, g, 2)),
      "gas"            -> (() => Greedy.gas(spark, g, 2)),
      "routeSizes"     -> (() => Greedy.routeSizes(spark, g)),
      "Baselines.rand" -> (() => Baselines.rand(spark, g, 2, 4)),
      "Exact.run"      -> (() => Exact.run(spark, g, 1)),
    )
    for ((name, call) <- calls) {
      call()
      eventually { assert(GraphBroadcasts.held().isEmpty, s"after $name") }
    }
  }
}
