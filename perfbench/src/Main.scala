package perfbench

import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Entry point of one benchmark run:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --cores <N> --work <dir> --out <file>`.
  *
  * The run sets the workload up [[SetupReps]] times (keeping the last), then
  * feeds timed chunks for `--seconds` of wall-clock time, checks
  * the final sample, and writes the result object to `--out`. With
  * `--trace 1` a pseudo-random half of the timed batches run with the probes
  * on; the per-layer metrics come from those batches and `trace_overhead_pct`
  * compares their latency with that of the probe-free half.
  */
object Main {
  val SetupReps = 3
  /** Timed batches the Algorithm 2 case counts cover. */
  val BranchWindow = 20

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        cores: Int, work: String, out: String)

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}") }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(get("workload"), get("seed").toLong, get("seconds").toDouble, get("trace") == "1",
      get("cores").toInt, get("work"), get("out"))
    require(Workloads.names.contains(a.workload), s"unknown workload ${a.workload}; one of ${Workloads.names.mkString(", ")}")
    require(a.seconds > 0 && a.cores > 0, "seconds and cores must be positive")
    a
  }

  def session(cores: Int, work: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores.toLong)
      .config("spark.default.parallelism", cores.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", s"$work/spark-local")
      .config("spark.sql.warehouse.dir", s"$work/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val trace = new Trace
    val meter = new Meter(trace, args.trace)
    val collector = new SparkCollector

    val t0 = System.nanoTime()
    val spark = if (args.workload == "local-ols") None else Some(session(args.cores, args.work))
    spark.foreach(_.sparkContext.addSparkListener(collector))
    val sessionS = (System.nanoTime() - t0) / 1e9
    val wl: Workload = args.workload match {
      case "local-ols" => new LocalOls(args.seed, trace, meter)
      case "spark-dist-cp" => new SparkDistCp(spark.get, args.cores, args.seed, trace, meter)
      case "spark-dttbs" => new SparkDttbs(spark.get, args.cores, args.seed, trace, meter)
      case "stream-small" => new StreamSmall(spark.get, args.cores, args.seed, trace, meter, args.work)
    }

    log(f"session ${sessionS}%.2f s; ${args.workload} seed ${args.seed}, ${environment(args.cores)}")
    val setupS = (1 to SetupReps).map { _ =>
      val s0 = System.nanoTime()
      wl.setup()
      (System.nanoTime() - s0) / 1e9
    }

    val timedFrom = wl.ledger.t
    var failed = 0L
    val errors = ArrayBuffer.empty[String]
    var k = 0
    val timedStart = System.nanoTime()
    while (failed == 0 && System.nanoTime() - timedStart < args.seconds * 1e9 &&
           meter.latencies.size + wl.chunkLen <= wl.maxTimedBatches) {
      try wl.chunk(k)
      catch {
        case e: Throwable if NonFatal(e) || e.isInstanceOf[StackOverflowError] =>
          failed += 1
          errors += s"chunk $k failed: $e"
      }
      k += 1
    }
    log(f"set-ups ${setupS.map(s => f"$s%.2f").mkString(" ")} s; ${meter.latencies.size} timed batches " +
      f"(tail = p${Stats.tailPercent(meter.latencies.size)}), ${meter.timedMs / 1000}%.2f s of latency")
    val attempted = meter.latencies.size + failed

    collector.drain()
    val (checkFailures, modelMse) =
      try wl.finish()
      catch { case NonFatal(e) => (Seq(s"final checks failed: $e"), 0.0) }
    errors ++= checkFailures
    log(s"checks done, ${if (errors.isEmpty) "all passed" else s"${errors.size} failed"}")
    val cachedRdds = spark.map(_.sparkContext.getPersistentRDDs.size).getOrElse(0)
    wl.close()
    val heapMb = Trace.liveHeapMb()

    log(f"live heap $heapMb%.1f MB")
    val metrics =
      if (!args.trace) endToEnd(meter, sessionS + Stats.median(setupS), failed, attempted, heapMb, modelMse)
      else perLayer(trace, meter, collector, wl, wl.ledger.branches.slice(timedFrom, timedFrom + BranchWindow).toSeq, cachedRdds)
    val correct = errors.isEmpty
    errors.foreach(e => log(s"FAILED: $e"))
    val json = Stats.resultJson(correct, math.max(1L, attempted), failed, metrics)
    java.nio.file.Files.writeString(java.nio.file.Paths.get(args.out), json + "\n")
    spark.foreach(_.stop())
  }

  private def environment(cores: Int): String = {
    val rt = Runtime.getRuntime
    s"local[$cores] on ${rt.availableProcessors} cores, max heap ${rt.maxMemory >> 20} MB, " +
      s"Java ${System.getProperty("java.version")}, Spark ${org.apache.spark.SPARK_VERSION}"
  }

  private val jvmStart = java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime

  /** Progress on stderr, stamped with seconds since the JVM started. */
  def log(msg: String): Unit =
    Console.err.println(f"perfbench [${(System.currentTimeMillis() - jvmStart) / 1000.0}%6.2f s] $msg")

  private def endToEnd(meter: Meter, setupS: Double, failed: Long, attempted: Long,
                       heapMb: Double, modelMse: Double): Seq[(String, Stats.Metric)] = {
    val lat = meter.latencies.map(_._1).toSeq
    val safe = if (lat.isEmpty) Seq(0.0) else lat
    Seq(
      "batch_ms_p50" -> Stats.Metric(Stats.median(safe), "ms"),
      "batch_ms_p90" -> Stats.Metric(Stats.percentile(safe, Stats.tailPercent(safe.size)), "ms"),
      "items_per_s" -> Stats.Metric(meter.items / math.max(1e-9, meter.timedMs / 1000), "1/s"),
      "setup_s" -> Stats.Metric(setupS, "s"),
      "ok_frac" -> Stats.Metric((attempted - failed).toDouble / math.max(1L, attempted), "ratio"),
      "heap_live_mb" -> Stats.Metric(heapMb, "MB"),
      "model_mse" -> Stats.Metric(modelMse, "mse"),
    )
  }

  private def perLayer(trace: Trace, meter: Meter, collector: SparkCollector, wl: Workload,
                       branches: Seq[String], cachedRdds: Int): Seq[(String, Stats.Metric)] = {
    // Spark cost of each traced batch, joined onto its span record.
    val recs = trace.batches.toSeq.zip(meter.windows).map { case (r, (from, to)) => r ++ collector.window(from, to) }
    def vals(key: String): Seq[Double] = recs.map(_.getOrElse(key, 0.0))
    def p(key: String, pct: Int): Double = {
      val xs = vals(key)
      if (xs.isEmpty) 0.0 else Stats.percentile(xs, if (pct == 90) Stats.tailPercent(xs.size) else pct)
    }
    def perBatch(key: String): Double = Stats.mean(vals(key))
    def ms(v: Double) = Stats.Metric(v, "ms")
    def count(v: Double) = Stats.Metric(v, "count")

    val untraced = meter.latencies.filterNot(_._2).map(_._1).toSeq
    val traced = meter.latencies.filter(_._2).map(_._1).toSeq
    val overhead =
      if (untraced.isEmpty || traced.isEmpty) 0.0
      else (Stats.median(traced) / Stats.median(untraced) - 1) * 100
    val opsMs = TimingOps.primitives.map(p => s"dist.ops.$p")
    val lineage = recs.map(r => r.getOrElse("spark.lineage_rdds", 0.0))

    Seq(
      "trace_overhead_pct" -> Stats.Metric(overhead, "%"),
      "core.process_batch_ms_p50" -> ms(p("core.process_batch", 50)),
      "core.process_batch_ms_p90" -> ms(p("core.process_batch", 90)),
      "core.sample_ms_p50" -> ms(p("core.sample", 50)),
    ) ++ Branch.names.map(b => s"core.branch.$b" -> count(branches.count(_ == b).toDouble)) ++ Seq(
      "ml.loss_ms_p50" -> ms(p("ml.loss", 50)),
      "exp.harness_self_ms_p50" -> ms(selfP50(recs, "step_ms",
        Seq("exp.mk_batch", "core.sample", "ml.loss", "core.process_batch"), wl.isInstanceOf[LocalOls])),
      "dist.process_batch_ms_p50" -> ms(p("dist.process_batch", 50)),
      "dist.driver_self_ms_p50" -> ms(selfP50(recs, "dist.process_batch", opsMs, recs.exists(_.contains("dist.ops.batch_size")))),
    ) ++ TimingOps.primitives.flatMap { prim =>
      Seq(s"dist.ops.$prim.ms_per_batch" -> ms(perBatch(s"dist.ops.$prim")),
          s"dist.ops.$prim.calls_per_batch" -> count(perBatch(s"dist.ops.$prim.calls")))
    } ++ Seq(
      "stream.overhead_ms_p50" -> ms(selfP50(recs, "step_ms", Seq("dist.process_batch"), wl.isInstanceOf[StreamSmall])),
      "spark.jobs_per_batch" -> count(perBatch("spark.jobs")),
      "spark.stages_per_batch" -> count(perBatch("spark.stages")),
      "spark.tasks_per_batch" -> count(perBatch("spark.tasks")),
      "spark.task_run_ms_per_batch" -> ms(perBatch("spark.task_run_ms")),
      "spark.job_ms_per_batch" -> ms(perBatch("spark.job_ms")),
      "spark.outside_jobs_ms_per_batch" -> ms(
        if (recs.exists(_.getOrElse("spark.jobs", 0.0) > 0)) Stats.mean(recs.map(r => r("step_ms") - r.getOrElse("spark.job_ms", 0.0))) else 0.0),
      "spark.shuffle_read_bytes_per_batch" -> Stats.Metric(perBatch("spark.shuffle_read_bytes"), "B"),
      "spark.shuffle_write_bytes_per_batch" -> Stats.Metric(perBatch("spark.shuffle_write_bytes"), "B"),
      "spark.lineage_rdds_max" -> count((0.0 +: lineage).max),
      "spark.lineage_rdds_per_batch" -> count(slopeOverBatches(recs, lineage)),
      "spark.cached_rdds_end" -> count(cachedRdds.toDouble),
      "jvm.gc_ms_per_batch" -> ms(perBatch("jvm.gc_ms")),
    )
  }

  /** Median over batches of `total` minus the `children` spans it contains. */
  private def selfP50(recs: Seq[Map[String, Double]], total: String, children: Seq[String],
                      applies: Boolean): Double =
    if (!applies || recs.isEmpty) 0.0
    else Stats.median(recs.map(r => r.getOrElse(total, 0.0) - children.map(r.getOrElse(_, 0.0)).sum))

  /** Growth per batch of the lineage, against each traced batch's position in the run. */
  private def slopeOverBatches(recs: Seq[Map[String, Double]], lineage: Seq[Double]): Double = {
    val xs = recs.map(_.getOrElse("batch_index", 0.0))
    if (lineage.size < 2) 0.0
    else {
      val xm = Stats.mean(xs); val ym = Stats.mean(lineage)
      val den = xs.map(x => (x - xm) * (x - xm)).sum
      if (den == 0) 0.0 else xs.zip(lineage).map { case (x, y) => (x - xm) * (y - ym) }.sum / den
    }
  }
}
