package perfbench

/** Order statistics and the JSON rendering of one benchmark result. */
object Stats {

  /** Nearest-rank percentile: the value at rank ⌈p·N/100⌉ of the sorted sample. */
  def percentile(xs: Seq[Double], p: Int): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p > 0 && p <= 100, s"percentile $p outside (0, 100]")
    val s = xs.sorted
    s(rank(s.size, p) - 1)
  }

  /** 1-based nearest rank of percentile `p` in a sample of `n`. */
  def rank(n: Int, p: Int): Int = math.max(1, (p * n + 99) / 100)

  /** The highest whole percentile, at most 90, that leaves at least ten
    * samples beyond its rank; 50 when the sample is too small for any tail.
    */
  def tailPercent(n: Int): Int =
    (90 to 51 by -1).find(p => n - rank(n, p) >= 10).getOrElse(50)

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** A measured value with its unit. */
  final case class Metric(value: Double, unit: String)

  private def quote(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def number(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x is not finite")
    java.lang.Double.toString(x)
  }

  /** The one-line result object: correct, attempted, failed and metrics. */
  def resultJson(correct: Boolean, attempted: Long, failed: Long,
                 metrics: Seq[(String, Metric)]): String = {
    val ms = metrics.map { case (k, m) =>
      s"${quote(k)}: {${quote("value")}: ${number(m.value)}, ${quote("unit")}: ${quote(m.unit)}}"
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
