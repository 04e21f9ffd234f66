package atrbench

import org.apache.spark.sql.SparkSession
import repro.core.Greedy
import repro.graph.{CompactGraph, GraphGen}

/** One benchmark workload: a graph stand-in, a greedy solver and a budget.
  *
  * The graph is the stand-in `config` generates, with its vertex ids
  * permuted by the benchmark's `--seed` (see [[Workload.relabel]]); the
  * program only ever receives the generated graph. Without `--seed`, or with
  * the preset's own seed, the permutation is the identity and the graph is
  * exactly the preset stand-in.
  */
final case class Workload(name: String, solver: Workload.Solver, b: Int,
                          config: GraphGen.Config) {

  def defaultSeed: Long = config.seed

  def edges(seed: Long): IndexedSeq[(Int, Int)] =
    Workload.relabel(GraphGen.edges(config), config.nVertices, seed - config.seed)
}

object Workload {

  /** Vertex ids are shuffled within aligned blocks of this many ids. */
  val RelabelBlock = 32

  /** Permute vertex ids within aligned blocks of [[RelabelBlock]] ids, seeded
    * by `key`; `key == 0` is the identity.
    *
    * Regenerating the stand-in with another `GraphGen` seed changes its
    * structure (largest cliques, community overlap), and that moved the
    * greedy's gain and round times by 10-20% from seed to seed. A block
    * permutation keeps the structure, and the ego-window locality `GraphGen`
    * builds in, while every edge id, tie-break and partition assignment
    * changes with the seed.
    */
  def relabel(edges: IndexedSeq[(Int, Int)], n: Int, key: Long): IndexedSeq[(Int, Int)] =
    if (key == 0) edges
    else {
      val rnd = new scala.util.Random(key)
      val perm = Array.tabulate(n)(identity)
      for (lo <- 0 until n by RelabelBlock) {
        val hi = math.min(n, lo + RelabelBlock)
        for (i <- hi - 1 until lo by -1) {
          val j = lo + rnd.nextInt(i - lo + 1)
          val t = perm(i); perm(i) = perm(j); perm(j) = t
        }
      }
      edges.map { case (u, v) => (perm(u), perm(v)) }
    }

  sealed abstract class Solver(val name: String) {
    def solve(spark: SparkSession, g: CompactGraph, b: Int): Greedy.Result
  }
  case object Gas extends Solver("gas") {
    def solve(spark: SparkSession, g: CompactGraph, b: Int): Greedy.Result = Greedy.gas(spark, g, b)
  }
  case object BasePlus extends Solver("basePlus") {
    def solve(spark: SparkSession, g: CompactGraph, b: Int): Greedy.Result = Greedy.basePlus(spark, g, b)
  }

  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  val all: Seq[Workload] = Seq(
    Workload("gas-pokec", Gas, 20, GraphGen.preset("pokec")),
    Workload("baseplus-pokec", BasePlus, 10, GraphGen.preset("pokec")),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
