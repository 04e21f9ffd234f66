package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.{AKT, Baselines, Greedy}
import repro.graph.{CompactGraph, GraphGen}
import repro.truss.LocalTruss

/** Benchmark harness: one entry point per evaluation table, each returning
  * typed rows and printing a paper-vs-measured comparison. Shared by the
  * `bench/` ScalaTest suites and the `jobs/` spark-submit mains.
  *
  * Paper numbers are the published values for the *real* SNAP datasets; our
  * stand-ins are structurally matched but 20-300x smaller (DESIGN.md §3-4),
  * so absolute values differ — the claims under test are the *shapes*:
  * which method wins, and by roughly what kind of factor.
  */
object Harness {

  /** Published Table III rows (trussness gain; running time seconds). */
  final case class PaperIII(vertices: Long, edges: Long, kMax: Int, supMax: Int,
                            rand: Long, sup: Long, tur: Long, gas: Long,
                            baseS: Option[Double], basePlusS: Option[Double], gasS: Option[Double])

  val paperIII: Map[String, PaperIII] = Map(
    "college"    -> PaperIII(1899, 13838, 7, 74, 111, 134, 184, 769, Some(98547.74), Some(88.91), Some(76.60)),
    "facebook"   -> PaperIII(4039, 88234, 97, 293, 8891, 525, 9948, 21980, None, Some(17788.76), Some(3122.52)),
    "brightkite" -> PaperIII(58228, 214078, 43, 272, 1271, 235, 1526, 6163, None, Some(3388.98), Some(1054.22)),
    "gowalla"    -> PaperIII(196591, 950327, 29, 1297, 577, 769, 1042, 11492, None, Some(24414.38), Some(6732.54)),
    "youtube"    -> PaperIII(1134890, 2987624, 19, 4034, 358, 823, 1611, 10281, None, Some(62391.04), Some(22550.14)),
    "google"     -> PaperIII(875713, 4322051, 44, 3086, 91, 95, 147, 5640, None, Some(76856.74), Some(15714.23)),
    "patents"    -> PaperIII(3774768, 16518947, 36, 591, 59, 37, 146, 10870, None, Some(194103.18), Some(70802.71)),
    "pokec"      -> PaperIII(1632803, 22301964, 29, 5566, 302, 436, 809, 28208, None, None, Some(210571.13)),
  )

  /** Published Table IV rows (upward-route sizes, first GAS round). */
  final case class PaperIV(min: Long, max: Long, sum: Long, avg: Double)

  val paperIV: Map[String, PaperIV] = Map(
    "college"    -> PaperIV(0, 60, 32314, 2.34),
    "facebook"   -> PaperIV(0, 8629, 1478230, 14.55),
    "brightkite" -> PaperIV(0, 1291, 551448, 2.58),
    "gowalla"    -> PaperIV(0, 633, 3451244, 3.63),
    "youtube"    -> PaperIV(0, 1555, 5533322, 1.85),
    "google"     -> PaperIV(0, 273, 4829848, 1.12),
    "patents"    -> PaperIV(0, 2297, 10472823, 0.63),
    "pokec"      -> PaperIV(0, 971, 64276694, 2.88),
  )

  /** Published Table V rows: AKT/GAS trussness-gain ratio, % (b=50). */
  final case class PaperV(avgGainPct: Int, maxGainPct: Int)

  val paperV: Map[String, PaperV] = Map(
    "college"    -> PaperV(51, 74),
    "facebook"   -> PaperV(5, 8),
    "brightkite" -> PaperV(15, 23),
    "gowalla"    -> PaperV(20, 31),
    "youtube"    -> PaperV(25, 42),
    "google"     -> PaperV(27, 35),
    "patents"    -> PaperV(25, 47),
    "pokec"      -> PaperV(26, 47),
  )

  // ------------------------------------------------------------ Table III

  /** BASE is run only where its O(b·m^2.5) cost fits the budget — the same
    * presentation the paper uses ("-" when over three days).
    */
  val BaseEdgeLimit = 6000

  final case class RowIII(name: String, vertices: Int, edges: Int, kMax: Int, supMax: Int,
                          rand: Long, sup: Long, tur: Long, gas: Long,
                          baseMs: Option[Long], basePlusMs: Long, gasMs: Long,
                          reuseFrac: Double)

  def tableIII(spark: SparkSession, names: Seq[String], b: Int, trials: Int): Seq[RowIII] =
    names.map { name =>
      val g = GraphGen.graph(name)
      val dec = LocalTruss.decompose(g)
      val supMax = (0 until g.m).map(g.support).max
      val nVerts = (0 until g.n).count(g.degree(_) > 0)

      val randG = Baselines.rand(spark, g, b, trials)
      val supG = Baselines.sup(spark, g, b, trials)
      val turG = Baselines.tur(spark, g, b, trials)

      val baseMs = if (g.m <= BaseEdgeLimit) {
        val t0 = System.nanoTime()
        Greedy.base(spark, g, b)
        Some((System.nanoTime() - t0) / 1000000)
      } else None

      val t1 = System.nanoTime()
      val basePlusRes = Greedy.basePlus(spark, g, b)
      val basePlusMs = (System.nanoTime() - t1) / 1000000

      val t2 = System.nanoTime()
      val gasRes = Greedy.gas(spark, g, b)
      val gasMs = (System.nanoTime() - t2) / 1000000
      // GAS ≡ BASE+ anchor for anchor is what defines GAS's correctness
      if (gasRes.anchors != basePlusRes.anchors)
        throw new IllegalStateException(
          s"$name: GAS anchors ${gasRes.anchors} != BASE+ anchors ${basePlusRes.anchors}")

      val laterRounds = gasRes.rounds.drop(1)
      val reuseFrac =
        if (laterRounds.isEmpty) 0.0
        else laterRounds.map(r => r.reusedFully.toDouble / math.max(1, r.reusedFully + r.evaluated)).sum / laterRounds.size

      RowIII(name, nVerts, g.m, dec.kMax, supMax,
             randG, supG, turG, gasRes.gain, baseMs, basePlusMs, gasMs, reuseFrac)
    }

  def printIII(rows: Seq[RowIII], b: Int): Unit = {
    println(s"\n=== Table III (stand-ins, b=$b; paper: real SNAP graphs, b=100) ===")
    println(f"${"dataset"}%-11s ${"|V|"}%8s ${"|E|"}%8s ${"kmax"}%5s ${"supmax"}%7s | " +
      f"${"Rand"}%8s ${"Sup"}%8s ${"Tur"}%8s ${"GAS"}%8s | ${"BASE(s)"}%9s ${"BASE+(s)"}%9s ${"GAS(s)"}%8s ${"reuse"}%6s")
    rows.foreach { r =>
      val p = paperIII(r.name)
      println(f"${r.name}%-11s ${r.vertices}%8d ${r.edges}%8d ${r.kMax}%5d ${r.supMax}%7d | " +
        f"${r.rand}%8d ${r.sup}%8d ${r.tur}%8d ${r.gas}%8d | " +
        f"${r.baseMs.map(ms => f"${ms / 1000.0}%.1f").getOrElse("-")}%9s " +
        f"${r.basePlusMs / 1000.0}%9.1f ${r.gasMs / 1000.0}%8.1f ${r.reuseFrac * 100}%5.0f%%")
      println(f"${"  (paper)"}%-11s ${p.vertices}%8d ${p.edges}%8d ${p.kMax}%5d ${p.supMax}%7d | " +
        f"${p.rand}%8d ${p.sup}%8d ${p.tur}%8d ${p.gas}%8d | " +
        f"${p.baseS.map(s => f"$s%.0f").getOrElse("-")}%9s " +
        f"${p.basePlusS.map(s => f"$s%.0f").getOrElse("-")}%9s ${p.gasS.map(s => f"$s%.0f").getOrElse("-")}%8s ${""}%6s")
    }
  }

  // ------------------------------------------------------------- Table IV

  final case class RowIV(name: String, min: Int, max: Int, sum: Long, avg: Double)

  def tableIV(spark: SparkSession, names: Seq[String]): Seq[RowIV] =
    names.map { name =>
      val g = GraphGen.graph(name)
      val routes = Greedy.routeSizes(spark, g)
      RowIV(name, routes.min, routes.max, routes.map(_.toLong).sum,
            routes.map(_.toLong).sum.toDouble / g.m)
    }

  def printIV(rows: Seq[RowIV]): Unit = {
    println("\n=== Table IV: upward-route size, first GAS round ===")
    println(f"${"dataset"}%-11s ${"min"}%6s ${"max"}%8s ${"sum"}%12s ${"avg"}%7s   (paper: min/max/sum/avg)")
    rows.foreach { r =>
      val p = paperIV(r.name)
      println(f"${r.name}%-11s ${r.min}%6d ${r.max}%8d ${r.sum}%12d ${r.avg}%7.2f   " +
        f"(${p.min}%d / ${p.max}%d / ${p.sum}%d / ${p.avg}%.2f)")
    }
  }

  // -------------------------------------------------------------- Table V

  final case class RowV(name: String, gasGain: Long, aktAvgGain: Double, aktMaxGain: Long,
                        avgPct: Double, maxPct: Double)

  def tableV(spark: SparkSession, names: Seq[String], b: Int): Seq[RowV] =
    names.map { name =>
      val g = GraphGen.graph(name)
      val gas = Greedy.gas(spark, g, b).gain
      val akt = AKT.sweep(g, b)
      val gains = akt.map(_.globalGain)
      val avg = if (gains.isEmpty) 0.0 else gains.sum.toDouble / gains.size
      val mx = if (gains.isEmpty) 0L else gains.max
      RowV(name, gas, avg, mx,
           if (gas == 0) 0 else 100.0 * avg / gas,
           if (gas == 0) 0 else 100.0 * mx / gas)
    }

  def printV(rows: Seq[RowV], b: Int): Unit = {
    println(s"\n=== Table V: AKT vs GAS trussness gain (b=$b; paper b=50) ===")
    println(f"${"dataset"}%-11s ${"GAS"}%8s ${"AKT avg"}%9s ${"AKT max"}%9s ${"avg%%"}%6s ${"max%%"}%6s   (paper avg%% / max%%)")
    rows.foreach { r =>
      val p = paperV(r.name)
      println(f"${r.name}%-11s ${r.gasGain}%8d ${r.aktAvgGain}%9.1f ${r.aktMaxGain}%9d " +
        f"${r.avgPct}%5.0f%% ${r.maxPct}%5.0f%%   (${p.avgGainPct}%d%% / ${p.maxGainPct}%d%%)")
    }
  }
}
