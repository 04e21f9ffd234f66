package atrbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark job accounting seen from outside the program.
  *
  * Registered by the benchmark around one solve and removed afterwards. The
  * listener bus is asynchronous, so [[finish]] runs a marker job in its own
  * job group: the bus delivers events in order, and the marker's job-start
  * arrives only after every event the solve posted, job-ends included.
  * Durations come from the events' own timestamps.
  */
final class JobRecorder(sc: SparkContext) extends SparkListener {
  import JobRecorder._

  private val starts = mutable.LinkedHashMap.empty[Int, Long]
  private val ends = mutable.HashMap.empty[Int, Long]
  private var tasks = 0L
  private var taskRunMs = 0L
  private var shuffleWriteBytes = 0L
  private val markerSeen = new CountDownLatch(1)
  @volatile private var draining = false

  sc.addSparkListener(this)

  override def onJobStart(ev: SparkListenerJobStart): Unit = synchronized {
    val group = Option(ev.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    if (group == MarkerGroup) { draining = true; markerSeen.countDown() }
    else if (!draining) starts(ev.jobId) = ev.time
  }

  override def onJobEnd(ev: SparkListenerJobEnd): Unit = synchronized {
    if (starts.contains(ev.jobId)) ends(ev.jobId) = ev.time
  }

  override def onTaskEnd(ev: SparkListenerTaskEnd): Unit = synchronized {
    if (!draining && ev.taskMetrics != null) {
      tasks += 1
      taskRunMs += ev.taskMetrics.executorRunTime
      shuffleWriteBytes += ev.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Drain the bus, unregister, and return the jobs of the recorded window. */
  def finish(): Jobs = {
    sc.setJobGroup(MarkerGroup, "atrbench listener drain", interruptOnCancel = false)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.clearJobGroup()
    if (!markerSeen.await(60, TimeUnit.SECONDS))
      throw new IllegalStateException("listener bus did not deliver the marker job")
    sc.removeSparkListener(this)
    synchronized {
      val missing = starts.keySet.diff(ends.keySet)
      if (missing.nonEmpty)
        throw new IllegalStateException(s"jobs without a job-end event: ${missing.toSeq.sorted}")
      Jobs(starts.toSeq.map { case (id, s) => (id, s, ends(id)) }, tasks, taskRunMs,
           shuffleWriteBytes)
    }
  }
}

object JobRecorder {
  val MarkerGroup = "atrbench-marker"

  /** `jobs` holds (job id, start ms, end ms) in submission order. */
  final case class Jobs(jobs: Seq[(Int, Long, Long)], tasks: Long, taskRunMs: Long,
                        shuffleWriteBytes: Long) {
    def jobMs: Long = jobs.map { case (_, s, e) => e - s }.sum
  }
}
