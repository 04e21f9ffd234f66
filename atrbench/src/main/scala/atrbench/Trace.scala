package atrbench

import scala.collection.mutable

/** In-memory spans: name, start, end and the span that caused it.
  *
  * Times are epoch milliseconds (fractional), the clock Spark listener events
  * use, so job spans from [[JobRecorder]] nest under the benchmark's own.
  * A disabled trace records nothing, so untraced runs pay no span cost.
  */
final class Trace(enabled: Boolean) {
  final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double)

  private val epochMs0 = System.currentTimeMillis().toDouble
  private val nano0 = System.nanoTime()
  private val spans = mutable.ArrayBuffer.empty[Span]

  def nowMs(): Double = epochMs0 + (System.nanoTime() - nano0) / 1e6

  /** Record a finished span; returns its id (0, the root, when disabled). */
  def add(name: String, parent: Int, startMs: Double, endMs: Double): Int =
    if (!enabled) 0
    else {
      spans += Span(spans.length + 1, parent, name, startMs, endMs)
      spans.length
    }

  /** Run `f` inside a span; `f` receives the span's id for its children. */
  def span[A](name: String, parent: Int = 0)(f: Int => A): A =
    if (!enabled) f(0)
    else {
      val id = add(name, parent, nowMs(), Double.NaN)
      try f(id)
      finally spans(id - 1) = spans(id - 1).copy(endMs = nowMs())
    }

  def all: Seq[Span] = spans.toSeq

  def toJson: String = spans.map { s =>
    s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},""" +
    s""""start_ms":${Json.num(s.startMs)},"end_ms":${Json.num(s.endMs)}}"""
  }.mkString("[\n", ",\n", "\n]")
}

/** Just enough JSON for the result line and the trace file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
