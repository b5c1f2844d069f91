package perfbench

import repro.core.{BRS, Item, RTBS, Rng}
import repro.dist.{DRTBS, LocalReservoirOps, ReservoirOps}

/** Self-tests of the benchmark: each check must fire on a deliberately broken
  * sampler and stay quiet on the real one. Run with
  * `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
  */
object SelfTest {
  private var failures = 0

  private def expect(name: String, ok: Boolean, detail: => String = ""): Unit = {
    if (!ok) failures += 1
    println(s"${if (ok) "PASS" else "FAIL"} $name${if (ok) "" else s": $detail"}")
  }

  /** `batches` batches of `size` fresh items, batch indices 1.. */
  private def stream(batches: Int, size: Int): IndexedSeq[IndexedSeq[Item[Int]]] =
    (1 to batches).map(t => (0 until size).map(i => Item(t.toLong * size + i, t, i)))

  /** A reservoir backend that silently loses one item on its `dropAt`-th replace. */
  final class DroppingOps[P, B](inner: ReservoirOps[P, B], dropAt: Int) extends ReservoirOps[P, B] {
    private var replaces = 0
    override def count: Long = inner.count
    override def batchSize(b: B): Long = inner.batchSize(b)
    override def deleteRandom(k: Long): Unit = inner.deleteRandom(k)
    override def extractRandomOne(): Item[P] = inner.extractRandomOne()
    override def insertOne(item: Item[P]): Unit = inner.insertOne(item)
    override def appendAll(b: B): Unit = inner.appendAll(b)
    override def replaceRandom(m: Long, b: B): Unit = {
      inner.replaceRandom(m, b)
      replaces += 1
      if (replaces == dropAt) inner.extractRandomOne()
    }
    override def items: IndexedSeq[Item[P]] = inner.items
  }

  def percentiles(): Unit = {
    val v = scala.util.Random.shuffle((1 to 100).map(_.toDouble))
    expect("p50 of 1..100 is 50", Stats.median(v) == 50.0, s"${Stats.median(v)}")
    expect("tail of 100 samples is p90", Stats.tailPercent(100) == 90)
    expect("p90 of 1..100 is 90 with 10 beyond", Stats.percentile(v, 90) == 90.0 && v.count(_ > 90) == 10)
    expect("tail of 50 samples is p80 = 40", Stats.tailPercent(50) == 80 &&
      Stats.percentile((1 to 50).map(_.toDouble), 80) == 40.0)
    expect("tail of 20 samples falls back to p50 = 10", Stats.tailPercent(20) == 50 &&
      Stats.percentile((1 to 20).map(_.toDouble), 50) == 10.0)
    val ok = (20 to 1000).forall { n =>
      val p = Stats.tailPercent(n)
      n - Stats.rank(n, p) >= 10 && (p == 90 || n - Stats.rank(n, p + 1) < 10)
    }
    expect("tail percentile is the highest with at least 10 beyond, n = 20..1000", ok)
  }

  def ageAudit(): Unit = {
    val (n, lambda) = (2000, 0.07)
    val batches = stream(80, 500)
    val sizes = batches.map(_.size.toLong)
    val rtbs = new RTBS[Int](n, lambda, 1)
    val brs = new BRS[Int](n, 1)
    batches.foreach { b => rtbs.processBatch(b); brs.processBatch(b) }
    val onRtbs = Checks.ageAudit(rtbs.sample, sizes, lambda)
    expect("age audit passes R-TBS", onRtbs.isEmpty, onRtbs.mkString("; "))
    expect("age audit fires on B-RS (lambda = 0) in place of R-TBS",
      Checks.ageAudit(brs.sample, sizes, lambda).nonEmpty)
  }

  def sizeCheck(): Unit = {
    val (n, lambda) = (500, 0.07)
    val batches = stream(40, 100)
    def run(mkOps: LocalReservoirOps[Int] => ReservoirOps[Int, IndexedSeq[Item[Int]]]) = {
      val d = new DRTBS[Int, IndexedSeq[Item[Int]]](n, lambda, mkOps(new LocalReservoirOps[Int](new Rng(2))), new Rng(3))
      batches.foreach(d.processBatch)
      Checks.latentSample(d.latentItems, d.sampleWeight, n, batches.size)
    }
    val honest = run(ops => new TimingOps(ops, new Trace))
    expect("size check passes the timing decorator", honest.isEmpty, honest.mkString("; "))
    expect("size check fires on a decorator that drops one item",
      run(ops => new DroppingOps(ops, dropAt = 10)).nonEmpty)
  }

  def weightCheck(): Unit = {
    val (n, lambda) = (500, 0.07)
    val rtbs = new RTBS[Int](n, lambda, 4)
    val ledger = new Ledger(n, lambda)
    stream(20, 100).foreach { b =>
      rtbs.processBatch(if (b.head.batch == 12) b.tail else b)
      ledger.record(b.size.toLong, rtbs.totalWeight, rtbs.sampleWeight)
    }
    expect("weight check fires when the sampler misses one batch item", ledger.failures.nonEmpty)
  }

  def main(args: Array[String]): Unit = {
    percentiles()
    ageAudit()
    sizeCheck()
    weightCheck()
    println(if (failures == 0) "self-test passed" else s"self-test: $failures failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
