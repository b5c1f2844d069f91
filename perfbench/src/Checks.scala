package perfbench

import repro.core.Item
import scala.collection.mutable.ArrayBuffer

/** The benchmark's own record of the stream it fed: every batch size, and
  * the decayed total weight W those sizes imply. Every reported W and C is
  * checked against it, so the checks never trust the program's bookkeeping.
  */
final class Ledger(val n: Int, val lambda: Double) {
  private val d = math.exp(-lambda)
  /** |B_1|, ..., |B_t|. */
  val sizes: ArrayBuffer[Long] = ArrayBuffer.empty
  /** Algorithm 2 case of every batch, inferred from the reported W. */
  val branches: ArrayBuffer[String] = ArrayBuffer.empty
  val failures: ArrayBuffer[String] = ArrayBuffer.empty
  private var w = 0.0
  private var reportedW = 0.0

  def t: Int = sizes.size

  /** Record one batch without a weight check (samplers without W/C getters). */
  def record(batchSize: Long): Unit = {
    sizes += batchSize
    w = w * d + batchSize
  }

  /** Record one batch and check the sampler's reported W and C after it. */
  def record(batchSize: Long, wAfter: Double, cAfter: Double): Unit = {
    record(batchSize)
    branches += Branch.infer(n, reportedW, wAfter)
    reportedW = wAfter
    if (failures.size < 5) {
      Checks.relClose(wAfter, w, s"W after batch $t").foreach(failures += _)
      Checks.relClose(cAfter, math.min(n.toDouble, w), s"C after batch $t").foreach(failures += _)
    }
  }
}

/** Correctness checks. Each returns the failures it found (empty when it passes). */
object Checks {
  val RelTol = 1e-6
  /** Standard errors the sample's mean age may stray from eq. (4)'s. */
  val AgeZ = 5.0
  /** Standard deviations the T-TBS size may stray from Theorem 3.1's mean. */
  val SizeZ = 6.0

  def relClose(got: Double, want: Double, what: String): Option[String] =
    if (math.abs(got - want) <= RelTol * math.max(1.0, math.abs(want))) None
    else Some(f"$what: got $got%.9g, expected $want%.9g")

  /** Items are distinct and all arrived in batches 1..t. */
  def wellFormed(items: Seq[Item[_]], t: Int, what: String): Seq[String] = {
    val dupes = items.size - items.iterator.map(_.id).distinct.size
    val late = items.count(i => i.batch < 1 || i.batch > t)
    Seq(
      Option.when(dupes > 0)(s"$what: $dupes duplicate ids"),
      Option.when(late > 0)(s"$what: $late items from outside batches 1..$t"),
    ).flatten
  }

  /** R-TBS latent sample: ⌊C⌋ full items plus one partial item iff frac(C) > 0,
    * never more than n, and well formed.
    */
  def latentSample(latent: Seq[Item[_]], c: Double, n: Int, t: Int): Seq[String] = {
    val fl = math.floor(c + 1e-9)
    val want = fl.toLong + (if (c - fl > 1e-9) 1 else 0)
    Seq(
      Option.when(latent.size != want)(s"latent sample holds ${latent.size} items, C=$c needs $want"),
      Option.when(latent.size > n)(s"latent sample holds ${latent.size} > n=$n items"),
    ).flatten ++ wellFormed(latent, t, "latent sample")
  }

  /** Eq. (4) age audit. Under R-TBS (and T-TBS) an item of batch τ is in the
    * sample at time t with probability proportional to e^{-λ(t-τ)}, so the
    * sample's ages follow weights |B_τ|·e^{-λ(t-τ)}. The sample's mean age
    * must lie within [[AgeZ]] standard errors of that law's mean.
    */
  def ageAudit(sample: Seq[Item[_]], sizes: Seq[Long], lambda: Double): Seq[String] =
    if (sample.isEmpty) Seq("age audit: empty sample")
    else {
      val z = ageZ(sample, sizes, lambda)
      if (math.abs(z) <= AgeZ) Nil else Seq(f"age audit: sample mean age is $z%.1f standard errors from eq. (4)")
    }

  /** Standard errors between the sample's mean age and eq. (4)'s. */
  def ageZ(sample: Seq[Item[_]], sizes: Seq[Long], lambda: Double): Double = {
    val t = sizes.size
    val w = sizes.indices.map(i => sizes(i) * math.exp(-lambda * (t - 1 - i)))
    val mean = w.indices.map(i => (t - 1 - i) * w(i)).sum / w.sum
    val variance = w.indices.map(i => math.pow(t - 1 - i - mean, 2) * w(i)).sum / w.sum
    val observed = sample.iterator.map(it => (t - it.batch).toDouble).sum / sample.size
    (observed - mean) / math.sqrt(variance / sample.size)
  }

  /** Every end-of-run check of an R-TBS sampler: the latent sample, the
    * realized sample's bound and ids, and the age audit.
    */
  def rtbs(latent: Seq[Item[_]], sample: Seq[Item[_]], c: Double, ledger: Ledger): Seq[String] =
    ledger.failures.toSeq ++
      latentSample(latent, c, ledger.n, ledger.t) ++
      Option.when(sample.size > ledger.n)(s"sample holds ${sample.size} > n=${ledger.n} items") ++
      wellFormed(sample, ledger.t, "sample") ++
      ageAudit(sample, ledger.sizes.toSeq, ledger.lambda)

  /** Theorem 3.1: from an empty start with constant batches b, the T-TBS
    * sample size has mean n(1 - e^{-λt}). The tolerance is [[SizeZ]] times
    * the exact standard deviation of the retain/accept binomial recursion.
    */
  def ttbsSize(size: Long, sizes: Seq[Long], n: Int, lambda: Double, b: Double): Seq[String] = {
    val p = math.exp(-lambda)
    val q = n * (1 - p) / b
    var mean = 0.0; var variance = 0.0
    sizes.foreach { bt =>
      variance = p * p * variance + p * (1 - p) * mean + bt * q * (1 - q)
      mean = p * mean + q * bt
    }
    val theorem = n * (1 - math.exp(-lambda * sizes.size))
    Seq(
      Option.when(sizes.exists(_ != b.toLong))("Theorem 3.1 check needs constant batches"),
      Option.when(math.abs(size - theorem) > SizeZ * math.sqrt(variance) + 1)(
        f"T-TBS size $size vs Theorem 3.1 mean $theorem%.1f (sd ${math.sqrt(variance)}%.1f)"),
    ).flatten
  }
}
