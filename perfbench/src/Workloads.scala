package perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import org.apache.spark.storage.StorageLevel
import repro.core.{Item, RTBS, Rng}
import repro.data.StreamGen.{Obs, Periodic, RegressionModel, UniformBatch}
import repro.dist.{CoPartReservoirOps, DRTBS, DTTBS, StreamingTBS}
import repro.dist.StreamingTBS.Event
import repro.exp.QualityHarness
import repro.ml.Ols
import scala.collection.mutable.ArrayBuffer

/** Times one closed-loop client's batches: [[begin]] when a batch is handed
  * to the system, [[end]] when its updated sample is ready. Batches outside
  * begin/end (fill, warm-up) are not timed.
  */
final class Meter(trace: Trace, tracing: Boolean) {
  /** (latency ms, traced) of every timed batch. */
  val latencies: ArrayBuffer[(Double, Boolean)] = ArrayBuffer.empty
  /** Wall-clock windows of the traced batches, for Spark job attribution. */
  val windows: ArrayBuffer[(Long, Long)] = ArrayBuffer.empty
  var items = 0L
  private var t0 = 0L
  private var t0Ms = 0L
  private var open = false

  /** Opens a timed batch. With tracing, a fixed pseudo-random half of the
    * batches run with the probes on, so traced and untraced batches are
    * drawn alike from the workload's mix of batch sizes and cases.
    */
  def begin(): Unit = {
    trace.on = tracing && (scala.util.hashing.MurmurHash3.mix(0x5EED, latencies.size) & 1) == 1
    trace.beginBatch()
    open = true
    t0Ms = System.currentTimeMillis()
    t0 = System.nanoTime()
  }

  def end(batchItems: Long): Unit = if (open) {
    val ms = (System.nanoTime() - t0) / 1e6
    open = false
    latencies += ((ms, trace.on))
    items += batchItems
    if (trace.on) windows += ((t0Ms, System.currentTimeMillis()))
    trace.endBatch("step_ms" -> ms, "items" -> batchItems.toDouble, "batch_index" -> latencies.size.toDouble)
    trace.on = false
  }

  def timedMs: Double = latencies.iterator.map(_._1).sum
}

/** One benchmark workload. [[setup]] builds a fresh sampler, fills it and
  * warms it up (it runs several times per run; the last one is kept),
  * [[chunk]] feeds one timed chunk of pre-generated batches, and [[finish]]
  * checks the final sample outside the timed phase.
  */
trait Workload {
  /** Timed batches per chunk; inputs for a chunk are generated before it runs. */
  def chunkLen: Int
  def setup(): Unit
  def chunk(k: Int): Unit
  /** Correctness failures, and the model MSE of the run. */
  def finish(): (Seq[String], Double)
  /** The stream fed to the sampler kept from the last set-up. */
  def ledger: Ledger
  /** Timed batches per query before the known lineage overflow; unbounded elsewhere. */
  def maxTimedBatches: Int = Int.MaxValue
  def close(): Unit = ()
}

object Workloads {
  val Lambda = 0.07
  /** Seed of the batch-size schedules. It is the same for every --seed, so
    * every run feeds the same sizes in the same order: W, and with it the
    * Algorithm 2 case of each batch, follow the same path on every run,
    * while --seed draws the data and the samplers' random choices.
    */
  val ScheduleSeed = 0x5EED5L
  /** Sizes of the ten batches of chunk `chunk`: round(max·i/9) for i = 0..9,
    * a stratified U(0, max) with mean exactly max/2 and one empty batch, in an
    * order drawn from [[ScheduleSeed]]. Every chunk holds the same sizes, so
    * runs of any length see the same size distribution.
    */
  def stratifiedSizes(max: Int, chunk: Int): IndexedSeq[Int] =
    new Rng(ScheduleSeed).split(chunk.toLong)
      .sampleWithoutReplacement((0 to 9).map(i => math.round(max * i / 9.0).toInt), 10)

  /** Cap on timed batches for the Spark batch workloads. Every batch adds about
    * three RDDs to the reservoir's lineage, and long lineages overflow the
    * stack (ROADMAP item 1); with a 35-batch fill this keeps a run under 340
    * batches however fast the program gets.
    */
  val MaxTimedBatches = 300

  val names: Seq[String] = Seq("local-ols", "spark-dist-cp", "spark-dttbs", "stream-small")

  /** MSE on 50,000 held-out normal-mode observations of OLS fit to `sample`. */
  def heldOutMse(sample: Seq[Obs], seed: Long): Double = {
    val rng = new Rng(seed).split(Int.MaxValue)
    Ols.mse(sample.toIndexedSeq, IndexedSeq.fill(50000)(RegressionModel.draw(abnormal = false, rng)))
  }

  /** Batch `t` of `size` normal-mode observations, generated on the executors
    * from (seed, t, partition), cached and counted before it is timed.
    */
  def genBatch(spark: SparkSession, seed: Long, t: Int, size: Int, parts: Int): RDD[Item[Obs]] = {
    val rdd = spark.sparkContext
      .parallelize(0 until parts, parts)
      .mapPartitions { it =>
        val pid = it.next()
        val rng = new Rng(seed).split(t.toLong * 1024 + pid)
        val count = size / parts + (if (pid < size % parts) 1 else 0)
        Iterator.tabulate(count)(i => Item((t.toLong << 32) | (pid.toLong << 24) | i, t, RegressionModel.draw(abnormal = false, rng)))
      }
      .persist(StorageLevel.MEMORY_ONLY)
    rdd.count()
    rdd
  }
}

/** Single-node R-TBS inside the prequential OLS loop of the quality harness. */
final class LocalOls(seed: Long, trace: Trace, meter: Meter) extends Workload {
  import Workloads.Lambda
  val n = 200000
  /** Mean batch size; W's steady state b/(1 - e^-lambda) sits 7% above n. */
  val base = 14500
  val fillBatches = 40
  val chunkLen = 10
  /** Timed batches the model MSE averages over: one Periodic(10,10) period. */
  val mseWindow = 20
  private val pattern = Periodic(10, 10)
  private var sampler: RTBS[Obs] = _
  private var probed: TimingSampler[Obs] = _
  var ledger: Ledger = _
  private var nextId = 0L
  private var position = 0 // post-fill batch count, the Periodic pattern's clock
  private val losses = ArrayBuffer.empty[Double]

  /** One harness run over pre-generated batches: the first `warmup` are the
    * harness's unscored warm-up, the rest are scored, then ingested. The
    * harness's own batch-size draw is unused: mkBatch serves the next batch.
    */
  private def harnessRun(batches: IndexedSeq[IndexedSeq[Item[Obs]]], timed: Boolean,
                         warmup: Int): Vector[Double] = {
    val mkBatch = (t: Int, _: Int, _: Rng, _: Long) => {
      if (timed) meter.begin()
      trace.time("exp.mk_batch")(batches(t + warmup - 1))
    }
    val loss = (s: IndexedSeq[Obs], b: IndexedSeq[Obs]) => trace.time("ml.loss")(Ols.mse(s, b))
    QualityHarness.singleRun[Obs](_ => probed, mkBatch, UniformBatch(base), loss,
      QualityHarness.Config(warmup, batches.size - warmup, 1, 1, 0.1), seed)
  }

  /** The next chunk of post-fill batches, in Periodic(10,10) modes. */
  private def nextChunk(chunk: Int): IndexedSeq[IndexedSeq[Item[Obs]]] = {
    val rng = new Rng(seed).split(1L + chunk)
    Workloads.stratifiedSizes(2 * base, chunk).zipWithIndex.map { case (size, i) =>
      position += 1
      val b = IndexedSeq.tabulate(size)(j =>
        Item(nextId + j, ledger.t + 1 + i, RegressionModel.draw(pattern.abnormalAt(position), rng)))
      nextId += size
      b
    }
  }

  override def setup(): Unit = {
    ledger = new Ledger(n, Lambda)
    sampler = new RTBS[Obs](n, Lambda, seed)
    probed = new TimingSampler[Obs](sampler, trace, size => {
      meter.end(size)
      ledger.record(size, sampler.totalWeight, sampler.sampleWeight)
    })
    position = 0
    val rng = new Rng(seed).split(0)
    val fill = (1 to fillBatches).map(t => IndexedSeq.tabulate(base)(j =>
      Item((t - 1).toLong * base + j, t, RegressionModel.draw(abnormal = false, rng))))
    nextId = fillBatches.toLong * base
    harnessRun(fill, timed = false, warmup = fillBatches)
    harnessRun(nextChunk(-1), timed = false, warmup = 0)
  }

  override def chunk(k: Int): Unit = losses ++= harnessRun(nextChunk(k), timed = true, warmup = 0)

  override def finish(): (Seq[String], Double) = {
    val failures = Checks.rtbs(sampler.latentItems, sampler.sample, sampler.sampleWeight, ledger)
    (failures, Stats.mean(losses.take(mseWindow).toSeq))
  }
}

/** The Spark batch workloads: constant cached batches of `b` normal-mode
  * observations, a fill of [[fillBatches]] + [[warmBatches]] batches, then
  * timed chunks of [[chunkLen]] batches generated just before they run.
  */
abstract class SparkBatches(spark: SparkSession, parts: Int, seed: Long, meter: Meter) extends Workload {
  val n = 200000
  val b = 100000
  val fillBatches = 30
  val warmBatches = 5
  val chunkLen = 10
  override val maxTimedBatches: Int = Workloads.MaxTimedBatches
  var ledger: Ledger = _

  /** A fresh sampler from an empty start. */
  protected def fresh(): Unit
  /** Ingest one batch (the timed call). */
  protected def process(batch: RDD[Item[Obs]]): Unit
  /** Record the batch in the ledger after it is ingested. */
  protected def record(): Unit

  private def step(batch: RDD[Item[Obs]], timed: Boolean): Unit = {
    if (timed) meter.begin()
    process(batch)
    meter.end(b.toLong)
    record()
    batch.unpersist(blocking = false)
  }

  override def setup(): Unit = {
    ledger = new Ledger(n, Workloads.Lambda)
    fresh()
    (1 to fillBatches + warmBatches).foreach(t => step(Workloads.genBatch(spark, seed, t, b, parts), timed = false))
  }

  override def chunk(k: Int): Unit =
    (1 to chunkLen).map(i => Workloads.genBatch(spark, seed, ledger.t + i, b, parts)).foreach(step(_, timed = true))
}

/** D-R-TBS over the co-partitioned reservoir with distributed decisions;
  * saturated from the third batch on.
  */
final class SparkDistCp(spark: SparkSession, parts: Int, seed: Long, trace: Trace, meter: Meter)
    extends SparkBatches(spark, parts, seed, meter) {
  private var drtbs: DRTBS[Obs, RDD[Item[Obs]]] = _

  override protected def fresh(): Unit = {
    val ops = new CoPartReservoirOps[Obs](spark.sparkContext, parts, distributedDecisions = true, seed)
    drtbs = new DRTBS[Obs, RDD[Item[Obs]]](n, Workloads.Lambda, new TimingOps(ops, trace), new Rng(seed ^ 0xABCDEF))
  }
  override protected def process(batch: RDD[Item[Obs]]): Unit =
    trace.time("dist.process_batch")(drtbs.processBatch(batch))
  override protected def record(): Unit = ledger.record(b.toLong, drtbs.totalWeight, drtbs.sampleWeight)

  override def finish(): (Seq[String], Double) = {
    val s = drtbs.sample
    (Checks.rtbs(drtbs.latentItems, s, drtbs.sampleWeight, ledger), Workloads.heldOutMse(s.map(_.payload), seed))
  }
}

/** D-T-TBS on the same batches, from an empty start (Theorem 3.1). */
final class SparkDttbs(spark: SparkSession, parts: Int, seed: Long, trace: Trace, meter: Meter)
    extends SparkBatches(spark, parts, seed, meter) {
  private var dttbs: DTTBS[Obs] = _

  override protected def fresh(): Unit =
    dttbs = new DTTBS[Obs](spark.sparkContext, n, Workloads.Lambda, b.toDouble, parts, seed)
  override protected def process(batch: RDD[Item[Obs]]): Unit =
    trace.time("dist.process_batch")(dttbs.processBatch(batch))
  override protected def record(): Unit = ledger.record(b.toLong)

  override def finish(): (Seq[String], Double) = {
    val s = dttbs.sample
    val failures = Checks.wellFormed(s, ledger.t, "sample") ++
      Checks.ageAudit(s, ledger.sizes.toSeq, ledger.lambda) ++
      Checks.ttbsSize(s.size.toLong, ledger.sizes.toSeq, n, ledger.lambda, b.toDouble) ++
      Option.when(dttbs.sampleSize != s.size)(s"sampleSize ${dttbs.sampleSize} != collected ${s.size}")
    (failures, Workloads.heldOutMse(s.map(_.payload), seed))
  }
}

/** Structured Streaming: MemoryStream -> foreachBatch -> toItemRdd -> D-R-TBS
  * over Dist-CP, with small micro-batches of 0 to 200 events.
  *
  * One query runs at most [[maxTimedBatches]] timed micro-batches: the
  * reservoir lineage grows with every micro-batch and, at this size, Spark
  * dies with a StackOverflowError near micro-batch 161 (see the known
  * defects in spec.json), which takes the JVM down with exit code 50.
  */
final class StreamSmall(spark: SparkSession, parts: Int, seed: Long, trace: Trace, meter: Meter,
                        workDir: String) extends Workload {
  val n = 1480
  val maxBatch = 200
  val chunkLen = 10
  override val maxTimedBatches: Int = 100
  private var drtbs: DRTBS[(Double, Double), RDD[Item[(Double, Double)]]] = _
  var ledger: Ledger = _
  private var source: MemoryStream[Event] = _
  private var query: StreamingQuery = _
  @volatile private var microBatches = 0L
  private var rep = 0
  private var nextId = 0L

  /** Micro-batch `t`: `size` events with y = 4.2·x − 0.4 + N(0, 1). */
  private def events(t: Int, size: Int, rng: Rng): Seq[Event] = {
    val out = Seq.tabulate(size) { j =>
      val x = rng.uniform()
      Event(nextId + j, t, x, 4.2 * x - 0.4 + rng.gaussian())
    }
    nextId += size
    out
  }

  private def feed(evs: Seq[Event], timed: Boolean): Unit = {
    if (timed) meter.begin()
    source.addData(evs)
    query.processAllAvailable()
    meter.end(evs.size.toLong)
    ledger.record(evs.size.toLong, drtbs.totalWeight, drtbs.sampleWeight)
    if (microBatches != ledger.t) ledger.failures += s"fed ${ledger.t} micro-batches but foreachBatch ran $microBatches times"
  }

  private def chunkEvents(chunk: Int, rng: Rng): IndexedSeq[Seq[Event]] =
    Workloads.stratifiedSizes(maxBatch, chunk).zipWithIndex.map { case (size, i) => events(ledger.t + 1 + i, size, rng) }

  override def setup(): Unit = {
    close()
    rep += 1
    val ops = new CoPartReservoirOps[(Double, Double)](spark.sparkContext, parts, distributedDecisions = true, seed)
    drtbs = new DRTBS[(Double, Double), RDD[Item[(Double, Double)]]](n, Workloads.Lambda, new TimingOps(ops, trace), new Rng(seed ^ 0xABCDEF))
    ledger = new Ledger(n, Workloads.Lambda)
    microBatches = 0L
    nextId = 0L
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    import spark.implicits._
    source = MemoryStream[Event]
    val d = drtbs
    query = source.toDS().writeStream
      .option("checkpointLocation", s"$workDir/checkpoint-$rep")
      .foreachBatch { (df: Dataset[Event], _: Long) =>
        val items = StreamingTBS.toItemRdd(df.toDF(), parts)
        trace.time("dist.process_batch")(d.processBatch(items))
        microBatches += 1
      }
      .start()
    val rng = new Rng(seed).split(0)
    // Fill: one micro-batch of n events takes W to n; W then hovers around n.
    feed(events(1, n, rng), timed = false)
    chunkEvents(-1, rng).foreach(feed(_, timed = false))
  }

  override def chunk(k: Int): Unit = chunkEvents(k, new Rng(seed).split(1L + k)).foreach(feed(_, timed = true))

  override def finish(): (Seq[String], Double) = {
    val s = drtbs.sample
    val failures = Checks.rtbs(drtbs.latentItems, s, drtbs.sampleWeight, ledger)
    // OLS of y on (x, 1): the second feature is the intercept.
    val rng = new Rng(seed).split(Int.MaxValue)
    val test = IndexedSeq.fill(50000) { val x = rng.uniform(); Obs(x, 1.0, 4.2 * x - 0.4 + rng.gaussian()) }
    (failures, Ols.mse(s.map(i => Obs(i.payload._1, 1.0, i.payload._2)), test))
  }

  override def close(): Unit = if (query != null) { query.stop(); query = null }
}
