package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.scheduler._
import repro.core.{Item, Sampler}
import repro.dist.ReservoirOps
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Per-batch span sums, taken from outside the program.
  *
  * While `on`, every [[time]]d call adds its duration in ms (and a call
  * count under `<key>.calls`) to the open batch's record; [[endBatch]] closes
  * the record. While off, [[time]] only runs its body, so the untraced runs
  * that give the end-to-end numbers carry no probe cost beyond one flag test.
  */
final class Trace {
  @volatile var on: Boolean = false
  private val current = mutable.HashMap.empty[String, Double]
  private var gc0 = 0L
  /** One record per traced batch: span key -> summed ms (or count). */
  val batches: ArrayBuffer[Map[String, Double]] = ArrayBuffer.empty

  def add(key: String, v: Double): Unit =
    if (on) synchronized { current(key) = current.getOrElse(key, 0.0) + v }

  def time[A](key: String)(body: => A): A =
    if (!on) body
    else {
      val t0 = System.nanoTime()
      try body
      finally { add(key, (System.nanoTime() - t0) / 1e6); add(key + ".calls", 1) }
    }

  def beginBatch(): Unit = if (on) synchronized { current.clear(); gc0 = Trace.gcMillis() }

  def endBatch(fields: (String, Double)*): Unit =
    if (on) synchronized {
      fields.foreach { case (k, v) => add(k, v) }
      add("jvm.gc_ms", (Trace.gcMillis() - gc0).toDouble)
      batches += current.toMap
      current.clear()
    }
}

object Trace {
  /** Accumulated collection time of every garbage collector in this JVM. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Heap in use after full collections, in MB. */
  def liveHeapMb(): Double = {
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(100) }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** Which Algorithm 2 case ran, inferred from the public W before and after a
  * batch: the sampler was unsaturated iff W_before < n, and it is saturated
  * afterwards iff W_after > n (from unsaturated) or W_after >= n (from saturated).
  */
object Branch {
  val names: Seq[String] = Seq("saturated", "undershoot", "unsaturated", "overshoot")

  def infer(n: Int, wBefore: Double, wAfter: Double): String =
    if (wBefore < n) { if (wAfter > n) "overshoot" else "unsaturated" }
    else if (wAfter >= n) "saturated"
    else "undershoot"
}

/** Timing decorator for the single-node [[Sampler]] extension point. */
final class TimingSampler[P](inner: Sampler[P], trace: Trace, afterBatch: Long => Unit)
    extends Sampler[P] {
  override def processBatch(batch: IndexedSeq[Item[P]]): Unit = {
    trace.time("core.process_batch")(inner.processBatch(batch))
    afterBatch(batch.size.toLong)
  }
  override def sample: IndexedSeq[Item[P]] = trace.time("core.sample")(inner.sample)
  override def name: String = inner.name
}

/** Timing decorator for the [[ReservoirOps]] extension point of the
  * distributed R-TBS driver; one span per primitive.
  */
final class TimingOps[P, B](inner: ReservoirOps[P, B], trace: Trace) extends ReservoirOps[P, B] {
  override def count: Long = inner.count
  override def batchSize(b: B): Long = trace.time("dist.ops.batch_size")(inner.batchSize(b))
  override def deleteRandom(k: Long): Unit = trace.time("dist.ops.delete_random")(inner.deleteRandom(k))
  override def extractRandomOne(): Item[P] =
    trace.time("dist.ops.extract_random_one")(inner.extractRandomOne())
  override def insertOne(item: Item[P]): Unit = trace.time("dist.ops.insert_one")(inner.insertOne(item))
  override def appendAll(b: B): Unit = trace.time("dist.ops.append_all")(inner.appendAll(b))
  override def replaceRandom(m: Long, b: B): Unit =
    trace.time("dist.ops.replace_random")(inner.replaceRandom(m, b))
  override def items: IndexedSeq[Item[P]] = inner.items
}

object TimingOps {
  val primitives: Seq[String] =
    Seq("batch_size", "delete_random", "extract_random_one", "insert_one", "append_all", "replace_random")
}

/** Spark's own accounting of jobs, stages and tasks, gathered by a listener
  * the benchmark registers. Jobs are attributed to the batch whose
  * wall-clock window contains their submission time.
  */
final class SparkCollector extends SparkListener {
  private final case class Job(start: Long, stages: Seq[Int], var end: Long = -1L)
  private final case class Stage(var tasks: Int = 0, var runMs: Long = 0L, var shuffleRead: Long = 0L,
                                 var shuffleWrite: Long = 0L, var rdds: Int = 0, var completed: Boolean = false)
  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stages = mutable.HashMap.empty[Int, Stage]
  @volatile private var events = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    events += 1
    jobs(e.jobId) = Job(e.time, e.stageIds)
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    events += 1
    jobs.get(e.jobId).foreach(_.end = e.time)
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    events += 1
    val s = stages.getOrElseUpdate(e.stageInfo.stageId, Stage())
    s.completed = true
    s.rdds = e.stageInfo.rddInfos.size
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    events += 1
    val s = stages.getOrElseUpdate(e.stageId, Stage())
    s.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      s.runMs += m.executorRunTime
      s.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      s.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Wait until the asynchronous listener bus has delivered every event. */
  def drain(maxMs: Long = 10000): Unit = {
    val deadline = System.currentTimeMillis() + maxMs
    var last = -1L
    while (System.currentTimeMillis() < deadline &&
           (events != last || synchronized(jobs.values.exists(_.end < 0)))) {
      last = events
      Thread.sleep(200)
    }
  }

  /** Spark cost of the jobs submitted inside [fromMs, toMs]. */
  def window(fromMs: Long, toMs: Long): Map[String, Double] = synchronized {
    val js = jobs.values.filter(j => j.start >= fromMs && j.start <= toMs).toSeq
    val ss = js.flatMap(_.stages).distinct.flatMap(stages.get).filter(_.completed)
    Map(
      "spark.jobs" -> js.size.toDouble,
      "spark.job_ms" -> js.map(j => (j.end - j.start).max(0L)).sum.toDouble,
      "spark.stages" -> ss.size.toDouble,
      "spark.tasks" -> ss.map(_.tasks).sum.toDouble,
      "spark.task_run_ms" -> ss.map(_.runMs).sum.toDouble,
      "spark.shuffle_read_bytes" -> ss.map(_.shuffleRead).sum.toDouble,
      "spark.shuffle_write_bytes" -> ss.map(_.shuffleWrite).sum.toDouble,
      "spark.lineage_rdds" -> (0 +: ss.map(_.rdds)).max.toDouble,
    )
  }
}
