package atrbench

/** Order statistics over timing samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The tail as the highest percentile with at least ten samples beyond it:
    * the 11th-largest sample. Returns (value, percentile); with fewer than 11
    * samples no such percentile exists and the maximum is returned as p100.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.length
    if (n < 11) (s.last, 100.0)
    else (s(n - 11), 100.0 * (n - 10) / n)
  }
}
