package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** The thread sweep: results in item order whatever the width, one
  * workspace per non-empty chunk, exceptions passed through as they are,
  * and no worker left running once the call ends.
  */
class SweepSpec extends AnyFunSuite {

  private final class Boom extends RuntimeException("boom")

  test("a sweep returns items.map(f) in order and builds one workspace per non-empty chunk") {
    for (width <- Seq(1, 2, 3, 4, 7); n <- Seq(0, 1, 3, 100)) {
      val items = Vector.tabulate(n)(i => i * 31 % 17)
      val workspaces = new ConcurrentLinkedQueue[Thread]
      val got = Sweep.sweep(width, items) { workspaces.add(Thread.currentThread()); (x: Int) => x * x + 1 }
      assert(got.toSeq == items.map(x => x * x + 1), s"width=$width n=$n")
      assert(workspaces.size == math.min(width, n), s"width=$width n=$n")
    }
  }

  test("an exception from an item or a workspace reaches the caller unwrapped; no worker outlives the call") {
    val workers = new ConcurrentLinkedQueue[Thread]
    def run(workspace: => Unit, item: Int => Unit): Unit = {
      workers.clear()
      try Sweep.sweep(4, 0 until 8) { workers.add(Thread.currentThread()); workspace; item }
      finally assert(workers.size == 4 && workers.asScala.forall(!_.isAlive))
    }
    run((), _ => ())
    // item 0 fails at once while the other chunks are still sleeping
    intercept[Boom](run((), i => if (i == 0) throw new Boom else Thread.sleep(50)))
    intercept[Boom](run(throw new Boom, _ => ()))
  }
}
