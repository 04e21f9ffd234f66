package atrbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core.Greedy
import repro.graph.CompactGraph
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The ATR benchmark: a closed loop of greedy solves, one at a time, on
  * Spark `local[P]`, timed from outside the program.
  *
  * Usage (normally through `run.py`, which builds and launches the JVM):
  * {{{
  *   atrbench.Main --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] --work <dir>
  * }}}
  * `--trace 0` measures the end-to-end metrics with no listener or span
  * recording; `--trace 1` is the separate traced run that measures every
  * per-layer metric, records spans and writes them under `<dir>/trace`.
  * Every solve is checked; the last stdout line is the JSON result, and the
  * exit code is 0 only when every check passed.
  */
object Main {

  final case class Args(workload: String, seed: Option[Long], seconds: Double,
                        traced: Boolean, work: String)

  /** Set-up repetitions per run; `setup_s` is their median. */
  val SetupReps = 7

  /** Fewest measured warm solves per untraced run. */
  val MinMeasured = 4

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "work")
    kv.keySet.diff(known).foreach(k => throw new IllegalArgumentException(s"unknown option --$k"))
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = kv.get("seconds").map(_.toDouble).getOrElse(10.0)
    require(seconds > 0, "--seconds must be positive")
    Args(need("workload"), kv.get("seed").map(_.toLong), seconds, trace == "1", need("work"))
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv))
      catch {
        case e: IllegalArgumentException =>
          System.err.println(s"atrbench: ${e.getMessage}"); 2
        case NonFatal(e) =>
          e.printStackTrace(); 1
      }
    sys.exit(code)
  }

  // ------------------------------------------------------------------ setup

  final case class Setup(spark: SparkSession, g: CompactGraph,
                         totalS: Seq[Double], genMs: Seq[Double], csrMs: Seq[Double])

  def session(p: Int, work: String): SparkSession =
    SparkSession.builder
      .master(s"local[$p]")
      .appName("atrbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$work/spark-local")
      .config("spark.sql.warehouse.dir", s"$work/spark-warehouse")
      .getOrCreate()

  /** SparkSession, graph generation and CSR build, [[SetupReps]] times; the
    * session of every repetition but the last is stopped (untimed).
    */
  def setup(w: Workload, seed: Long, p: Int, work: String, trace: Trace): Setup = {
    var spark: SparkSession = null
    var g: CompactGraph = null
    val reps = (1 to SetupReps).map { _ =>
      if (spark != null) spark.stop()
      trace.span("setup") { id =>
        val t0 = System.nanoTime()
        spark = trace.span("spark.session", id)(_ => session(p, work))
        val t1 = System.nanoTime()
        val edges = trace.span("graph.gen", id)(_ => w.edges(seed))
        val t2 = System.nanoTime()
        g = trace.span("graph.csr", id)(_ => CompactGraph.fromEdges(edges))
        val t3 = System.nanoTime()
        ((t3 - t0) / 1e9, (t2 - t1) / 1e6, (t3 - t2) / 1e6)
      }
    }
    println("setup s: " + reps.map(r => f"${r._1}%.3f").mkString(" "))
    Setup(spark, g, reps.map(_._1), reps.map(_._2), reps.map(_._3))
  }

  // ----------------------------------------------------------------- solves

  /** One solve: wall seconds, GC time, collections and bytes allocated
    * inside it, and the program's result or the failure.
    */
  final case class Solve(wallS: Double, gcMs: Long, gcCount: Long, allocBytes: Long,
                         result: Either[Throwable, Greedy.Result])

  private def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }

  private val threadBean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by each live thread (Spark's local executor
    * threads included), by thread id.
    */
  private def allocatedByThread(): Map[Long, Long] = {
    val ids = threadBean.getAllThreadIds
    ids.zip(threadBean.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Solves run back to back with no collection forced in between, so each
    * pays for the garbage it and its predecessors leave, as in a long-lived
    * driver. Allocation is summed over the threads alive at the end; a thread
    * that ends inside the solve is not counted.
    */
  def solve(w: Workload, spark: SparkSession, g: CompactGraph): Solve = {
    val alloc0 = allocatedByThread()
    val (gcMs0, gcN0) = gcTotals()
    val t0 = System.nanoTime()
    val r = try Right(w.solver.solve(spark, g, w.b)) catch { case NonFatal(e) => Left(e) }
    val wallS = (System.nanoTime() - t0) / 1e9
    val (gcMs1, gcN1) = gcTotals()
    val alloc = allocatedByThread().map { case (id, b) => b - alloc0.getOrElse(id, 0L) }.sum
    Solve(wallS, gcMs1 - gcMs0, gcN1 - gcN0, alloc, r)
  }

  /** Anchors every solve must return, computed without the timed solver:
    * BASE+ over plain threads for GAS workloads, `Greedy.gas` for the BASE+
    * workload. Returns the reference's name and its anchors.
    */
  def reference(w: Workload, spark: SparkSession, g: CompactGraph, p: Int): (String, Seq[Int]) =
    w.solver match {
      case Workload.BasePlus => ("gas", Greedy.gas(spark, g, w.b).anchors)
      case Workload.Gas      => ("basePlus(threads)", Reference.basePlusAnchors(g, w.b, p))
    }

  /** Discarded warm solves after the reference. Later rounds keep getting
    * faster for the first 2-3 warm solves of a process while the JIT
    * compiles the greedy's driver-side loops (300 ms falling to 150-180 ms
    * on pokec).
    */
  val WarmUpSolves = 2

  /** The start of every run after set-up: the first solve of the process,
    * the reference (untimed; it also warms the JIT of the kernels), and
    * [[WarmUpSolves]] discarded warm solves. All of them are checked.
    */
  final case class WarmUp(cold: Solve, reference: (String, Seq[Int]), discarded: Seq[Solve]) {
    def solves: Seq[(String, Solve)] = ("cold" -> cold) +: discarded.map("warm-up" -> _)
  }

  def warmUp(w: Workload, st: Setup, p: Int, trace: Trace): WarmUp = {
    val cold = trace.span("solve.cold")(_ => solve(w, st.spark, st.g))
    val ref = trace.span("reference")(_ => reference(w, st.spark, st.g, p))
    WarmUp(cold, ref, (1 to WarmUpSolves).map(_ => trace.span("solve.warmup")(_ => solve(w, st.spark, st.g))))
  }

  /** Checks each solve: anchors must equal the reference, and the gain must
    * equal an independent `trussGain` of the returned anchors. Prints every
    * solve and every failure; returns the number of failed solves.
    */
  def check(g: CompactGraph, ref: (String, Seq[Int]), solves: Seq[(String, Solve)]): Int = {
    val (refName, refAnchors) = ref
    val gains = mutable.HashMap.empty[Seq[Int], Long]
    solves.zipWithIndex.count { case ((label, s), i) =>
      println(f"solve ${i + 1} $label ${s.wallS}%.3f s " +
              s.result.fold(e => s"failed: $e", r => s"rounds ms: ${r.rounds.map(_.millis).mkString(" ")}"))
      val problem = s.result match {
        case Left(e) => Some(s"threw $e")
        case Right(r) if r.anchors != refAnchors =>
          Some(s"anchors ${r.anchors.mkString(",")} != $refName reference ${refAnchors.mkString(",")}")
        case Right(r) =>
          val indep = gains.getOrElseUpdate(r.anchors, Reference.gain(g, r.anchors))
          if (r.gain != indep) Some(s"gain ${r.gain} != independent trussGain $indep") else None
      }
      problem.foreach(msg => println(s"check FAILED: solve ${i + 1}: $msg"))
      problem.nonEmpty
    }
  }

  // ------------------------------------------------------------------- runs

  final case class Metric(name: String, value: Double, unit: String, note: String)

  def run(a: Args): Int = {
    val w = Workload.byName(a.workload)
    val seed = a.seed.getOrElse(w.defaultSeed)
    val nproc = Runtime.getRuntime.availableProcessors()
    val p = math.min(4, nproc)
    val trace = new Trace(enabled = a.traced)
    val st = setup(w, seed, p, a.work, trace)
    try {
      val rt = ManagementFactory.getRuntimeMXBean
      val xmx = rt.getInputArguments.asScala.filter(_.startsWith("-Xmx")).lastOption.getOrElse("(default)")
      println(s"env workload=${w.name} solver=${w.solver.name} b=${w.b} seed=$seed " +
              s"nproc=$nproc P=$p master=${st.spark.sparkContext.master} heap=$xmx " +
              f"maxHeapMB=${Runtime.getRuntime.maxMemory / 1048576.0}%.0f " +
              s"jvm=${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")} " +
              s"spark=${st.spark.version} revision=${System.getProperty("atrbench.revision", "unknown")} " +
              s"sources=${System.getProperty("atrbench.sources", "unknown")} " +
              s"m=${st.g.m} n=${st.g.n} traced=${a.traced}")
      val (attempted, failed, gatesOk, metrics) =
        if (a.traced) Traced.run(a, w, st, p, trace) else untraced(a, w, st, p, trace)
      metrics.foreach { m =>
        println(f"metric ${m.name}%-28s ${m.value}%14.4f ${m.unit}%-6s ${m.note}")
      }
      println(f"solve_fail_rate = $failed/$attempted = ${failed.toDouble / math.max(1, attempted)}%.4f")
      val correct = failed == 0 && gatesOk
      val ms = metrics.map(m => m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))
      println(Json.obj(Seq("correct" -> correct.toString, "attempted" -> attempted.toString,
                           "failed" -> failed.toString, "metrics" -> Json.obj(ms))))
      if (correct) 0 else 1
    } finally st.spark.stop()
  }

  /** End-to-end run: the warm-up, then measured warm solves for `seconds` (at
    * least [[MinMeasured]]), then the checks. Nothing is registered with
    * Spark and no span is recorded.
    */
  def untraced(a: Args, w: Workload, st: Setup, p: Int, trace: Trace): (Int, Int, Boolean, Seq[Metric]) = {
    val wu = warmUp(w, st, p, trace)
    val warm = mutable.ArrayBuffer.empty[Solve]
    val t0 = System.nanoTime()
    while (warm.size < MinMeasured || (System.nanoTime() - t0) / 1e9 < a.seconds)
      warm += solve(w, st.spark, st.g)
    val all = wu.solves ++ warm.toSeq.map("measured" -> _)
    val failed = check(st.g, wu.reference, all)
    val ok = warm.flatMap(_.result.toOption)
    val out = mutable.ArrayBuffer(
      Metric("setup_s", Stats.median(st.totalS), "s", s"median of ${st.totalS.size} set-ups"))
    if (ok.nonEmpty) {
      val later = ok.flatMap(_.rounds.drop(1).map(_.millis.toDouble)).toSeq
      val (tail, pct) = Stats.tail(later)
      out ++= Seq(
        Metric("solve_s", Stats.median(warm.map(_.wallS).toSeq), "s", s"median, n=${warm.size} measured solves"),
        Metric("round_p50_ms", Stats.median(later), "ms", s"rounds >= 2, n=${later.size}"),
        Metric("round_tail_ms", tail, "ms", f"p$pct%.1f of rounds >= 2, n=${later.size}"),
        Metric("gain", ok.head.gain.toDouble, "edges", "TG(A, G)"))
    }
    (all.size, failed, true, out.toSeq)
  }
}
