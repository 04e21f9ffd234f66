package atrbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.{FollowerReuse, TrussTree}
import repro.graph.CompactGraph
import repro.truss.LocalTruss
import scala.collection.mutable

import Main.{Args, Metric, Setup, Solve}

/** The traced run: per-layer metrics, spans and the tracing overhead.
  *
  * After the warm-up ([[Main.warmUp]]) it runs pairs of one untraced and one
  * traced solve for `seconds` (at least two pairs, alternating which runs
  * first); a traced solve has a [[JobRecorder]]
  * registered, and its Spark jobs become child spans of the solve. Then it
  * times each layer through its public entry point, replays
  * `FollowerReuse.refresh` over the solve's own anchor sequence, and writes
  * spans and metrics to `<work>/trace/<workload>-seed<seed>.json`.
  *
  * Determinism gates, which fail the run: the replayed trussness must equal a
  * fresh decomposition under the final anchor mask, and every count (Spark
  * jobs, evaluated/reused candidates, replay and sweep sums) must repeat
  * exactly between the traced solves and between the two replay passes.
  */
object Traced {

  final case class TracedSolve(jobs: JobRecorder.Jobs, solve: Solve)

  private def heapUsedAfterGc(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** `f` timed in milliseconds and recorded as a span. */
  private def timed[A](trace: Trace, name: String, parent: Int)(f: => A): (A, Double) =
    trace.span(name, parent) { _ =>
      val t0 = System.nanoTime()
      val r = f
      (r, (System.nanoTime() - t0) / 1e6)
    }

  def run(a: Args, w: Workload, st: Setup, p: Int, trace: Trace): (Int, Int, Boolean, Seq[Metric]) = {
    val spark = st.spark
    val g = st.g
    val wu = Main.warmUp(w, st, p, trace)
    val solves = mutable.ArrayBuffer.from(wu.solves)
    val untraced = mutable.ArrayBuffer.empty[Solve]
    val traced = mutable.ArrayBuffer.empty[TracedSolve]
    val t0 = System.nanoTime()
    def untracedSolve(): Unit = {
      val u = Main.solve(w, spark, g)
      solves += ("untraced" -> u); untraced += u
    }
    def tracedSolve(): Unit = {
      val rec = new JobRecorder(spark.sparkContext)
      val start = trace.nowMs()
      val s = Main.solve(w, spark, g)
      val end = trace.nowMs()
      val jobs = rec.finish()
      val id = trace.add("solve", 0, start, end)
      jobs.jobs.foreach { case (_, js, je) => trace.add("spark.job", id, js.toDouble, je.toDouble) }
      solves += ("traced" -> s)
      traced += TracedSolve(jobs, s)
    }
    // Pairs alternate which side runs first, so warm-up drift does not bias
    // the overhead; at least one pair of each order.
    while (traced.size < 2 || (System.nanoTime() - t0) / 1e9 < a.seconds) {
      if (traced.size % 2 == 0) { untracedSolve(); tracedSolve() }
      else { tracedSolve(); untracedSolve() }
    }

    var gatesOk = true
    def gate(ok: Boolean, what: => String): Unit =
      if (!ok) { gatesOk = false; println(s"gate FAILED: $what") }

    val results = traced.flatMap(_.solve.result.toOption)
    def countsOf(t: TracedSolve) = t.solve.result.toOption.map { r =>
      (t.jobs.jobs.size, r.rounds.map(_.evaluated.toLong).sum, r.rounds.map(_.reusedFully.toLong).sum)
    }
    val counts = traced.map(countsOf).distinct
    gate(counts.size == 1, s"spark.jobs / evaluated / reused differ between traced solves: $counts")
    val anchors = results.headOption.map(_.anchors).getOrElse(Seq.empty)

    val out = mutable.ArrayBuffer.empty[Metric]
    def metric(name: String, v: Double, unit: String, note: String = ""): Unit =
      out += Metric(name, v, unit, note)

    metric("cold_solve_s", wu.cold.wallS, "s", "first solve in the process")
    val warmResults = (untraced ++ traced.map(_.solve)).flatMap(_.result.toOption)
    if (warmResults.nonEmpty)
      metric("round1_ms", Stats.median(warmResults.map(_.rounds.head.millis.toDouble).toSeq), "ms",
             s"median over ${warmResults.size} warm solves")
    trace.span("layers") { lid =>
      metric("cold_setup_s", st.totalS.head, "s", "first set-up in the process")
      metric("graph.gen_ms", Stats.median(st.genMs), "ms", s"median of ${st.genMs.size}")
      metric("graph.csr_ms", Stats.median(st.csrMs), "ms", s"median of ${st.csrMs.size}")

      val decs = (1 to 3).map(_ => timed(trace, "truss.decompose", lid)(LocalTruss.decompose(g)))
      val dec = decs.head._1
      metric("truss.decompose_ms", Stats.median(decs.map(_._2)), "ms", "median of 3, unanchored")

      val trees = (1 to 2).map(_ => timed(trace, "tree.build", lid)(TrussTree.build(g, dec.truss)))
      metric("tree.build_ms", Stats.median(trees.map(_._2)), "ms", "median of 2")
      metric("tree.nodes", trees.head._1.nodes.size, "count")

      val used0 = heapUsedAfterGc()
      val (state0, initialMs) =
        timed(trace, "reuse.initial", lid)(FollowerReuse.initial(g, new Array[Boolean](g.m)))
      val retained = heapUsedAfterGc() - used0
      metric("reuse.initial_ms", initialMs, "ms")

      // Replay refresh over the solve's anchors; the first pass warms up.
      def replay(pass: Int): (Seq[Double], Long, Long) = trace.span(s"reuse.replay.$pass", lid) { rid =>
        val mask = new Array[Boolean](g.m)
        var state = state0
        var stale = 0L; var invalid = 0L
        val ms = anchors.map { x =>
          mask(x) = true
          val (r, t) = timed(trace, "reuse.refresh", rid)(FollowerReuse.refresh(g, state, x, mask))
          state = r.state; stale += r.staleNodes.size; invalid += r.invalidatedEdges.size
          t
        }
        gate(java.util.Arrays.equals(state.truss, LocalTruss.decompose(g, mask).truss),
             s"replay pass $pass: refreshed trussness != decompose under the final mask")
        (ms, stale, invalid)
      }
      val first = replay(1)
      val (refreshMs, staleSum, invalidSum) = replay(2)
      gate((first._2, first._3) == (staleSum, invalidSum),
           s"replay sums differ between passes: ${(first._2, first._3)} vs ${(staleSum, invalidSum)}")
      metric("reuse.refresh_ms_p50", if (refreshMs.isEmpty) 0 else Stats.median(refreshMs), "ms",
             s"median of ${refreshMs.size} refreshes")
      metric("reuse.refresh_ms_sum", refreshMs.sum, "ms")
      metric("reuse.stale_nodes_sum", staleSum, "count")
      metric("reuse.invalidated_edges_sum", invalidSum, "count")
      metric("reuse.retained_mb", retained / 1048576.0, "MB", "heap held by the initial RoundState")

      val (sweep, sweepMs) = timed(trace, "followers.sweep", lid)(Reference.followerSweep(g, dec))
      metric("followers.sweep_ms", sweepMs, "ms", "1 thread, every edge, unanchored")
      metric("followers.find_us", sweepMs * 1000 / math.max(1, g.m), "us", "per FollowerFinder.find")
      metric("followers.route_size_sum", sweep.routeSizeSum, "count")
      // Properties of the input, not of the code: printed, not metrics.
      println(s"graph m=${g.m} sup_max=${(0 until g.m).iterator.map(g.support).maxOption.getOrElse(0)} " +
              s"kmax=${dec.kMax} followers.count_sum=${sweep.followerSum}")

      val probes = (0 to 3).map(_ => timed(trace, "spark.empty_sweep", lid)(emptySweep(spark, g.m)))
      metric("spark.empty_sweep_ms", Stats.median(probes.drop(1).map(_._2)), "ms",
             s"median of 3 after 1 warm-up, ${g.m} items")
    }

    if (results.nonEmpty) {
      val r = results.head
      val ev = r.rounds.map(_.evaluated.toLong).sum
      val re = r.rounds.map(_.reusedFully.toLong).sum
      val ok = traced.filter(_.solve.result.isRight)
      metric("greedy.evaluated_sum", ev, "count")
      metric("greedy.reused_sum", re, "count")
      metric("greedy.reuse_rate", if (ev + re == 0) 0 else re.toDouble / (ev + re), "ratio",
             "fully reused / candidates considered")
      metric("greedy.driver_ms", Stats.median(ok.map(t => t.solve.wallS * 1000 - t.jobs.jobMs).toSeq), "ms",
             "solve wall minus Spark job time")
      metric("spark.jobs", ok.head.jobs.jobs.size, "count", "per solve")
      metric("spark.job_ms", Stats.median(ok.map(_.jobs.jobMs.toDouble).toSeq), "ms")
      metric("spark.tasks", Stats.median(ok.map(_.jobs.tasks.toDouble).toSeq), "count")
      metric("spark.task_run_ms", Stats.median(ok.map(_.jobs.taskRunMs.toDouble).toSeq), "ms")
      metric("spark.shuffle_write_bytes", Stats.median(ok.map(_.jobs.shuffleWriteBytes.toDouble).toSeq), "bytes")
      metric("jvm.gc_ms", Stats.median(ok.map(_.solve.gcMs.toDouble).toSeq), "ms", "per traced solve")
      metric("jvm.gc_count", Stats.median(ok.map(_.solve.gcCount.toDouble).toSeq), "count", "per traced solve")
      metric("jvm.alloc_mb", Stats.median(ok.map(_.solve.allocBytes / 1048576.0).toSeq), "MB", "per traced solve")
      val overhead = (Stats.median(traced.map(_.solve.wallS).toSeq) - Stats.median(untraced.map(_.wallS).toSeq)) * 1000
      metric("trace.overhead_ms", overhead, "ms",
             f"traced vs untraced solve medians, n=${traced.size} pairs " +
             f"(${100 * overhead / 1000 / Stats.median(untraced.map(_.wallS).toSeq)}%.1f%%)")
    }

    val failed = trace.span("check")(_ => Main.check(g, wu.reference, solves.toSeq))

    val dir = Paths.get(a.work, "trace")
    Files.createDirectories(dir)
    val file = dir.resolve(s"${w.name}-seed${a.seed.getOrElse(w.defaultSeed)}.json")
    val json = Json.obj(Seq(
      "workload" -> Json.str(w.name),
      "metrics" -> Json.obj(out.toSeq.map(m => m.name -> Json.num(m.value))),
      "spans" -> trace.toJson))
    Files.write(file, json.getBytes(StandardCharsets.UTF_8))
    println(s"trace written to $file (${trace.all.size} spans)")
    (solves.size, failed, gatesOk, out.toSeq)
  }

  /** A no-op job of exactly Greedy's sweep shape:
    * `createDataset.repartition.mapPartitions.collect`.
    */
  def emptySweep(spark: SparkSession, items: Int): Int = {
    import spark.implicits._
    spark.createDataset((0 until items).toVector)
      .repartition(spark.sparkContext.defaultParallelism)
      .mapPartitions(it => it.map(e => (e, 0)))
      .collect()
      .length
  }
}
