package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.spark.SparkCleaner

/** Runs the full method zoo over a (dirty, truth) pair and collects the
  * paper's metrics. Distributed execution goes through
  * [[repro.spark.SparkCleaner]]; single-series inputs are cleaned
  * directly (one group) so timing reflects the algorithm.
  */
object Harness {

  /** One result row of a comparison table. */
  final case class ResultRow(method: String, rmse: Double, repairDistance: Double,
                             repairCount: Int, repairFraction: Double, millis: Long) {
    def fmt(n: Int): String =
      f"$method%-10s ${rmse}%8.4f ${repairDistance}%10.4f   $repairCount%6d(${repairFraction * 100}%5.2f%%) ${millis}%6d ms"
  }

  /** Constraint configuration for one experiment. All constraint-based
    * methods receive constraints of the same provenance so the
    * comparison stays fair; HTD additionally gets truth-derived limits
    * (the paper grants it those labels).
    */
  final case class Config(
      sc: SpeedConstraint,                 // multivariate constraint (MTCSC-*)
      uniScs: Array[SpeedConstraint],      // per-dimension constraints (univariate methods)
  )

  /** Expert-style constraint capture: percentile of the reference
    * series' speeds with a small slack factor (the paper uses domain
    * knowledge or a 95% confidence level; Section 4 motivates why pure
    * dirty-data capture is fragile).
    */
  def configFrom(reference: Array[TimePoint], w: Double,
                 percentile: Double = 0.99, slack: Double = 1.15): Config = {
    val s = SpeedConstraint.quantile(SpeedConstraint.consecutiveSpeeds(reference), percentile) * slack
    val sc = SpeedConstraint(math.max(s, 1e-9), w)
    val uniScs = Array.tabulate(reference(0).dim) { l =>
      val su = SpeedConstraint.quantile(SpeedConstraint.dimensionSpeeds(reference, l), percentile) * slack
      SpeedConstraint(math.max(su, 1e-9), w)
    }
    Config(sc, uniScs)
  }

  /** One compared method: its Table 3 row (dimension / process / type)
    * and a factory from an experiment's constraints to a cleaner. `truth`
    * is used only by HTD's labelled capture. MTCSC-Uni is compared
    * throughout but left out of the paper's Table 3 (`inTable3 = false`).
    */
  final case class Method(name: String, dimension: String, process: String, kind: String,
                          make: (Config, Array[TimePoint]) => Cleaner, inTable3: Boolean = true)

  /** The method registry: every compared method, in table order. */
  val registry: Seq[Method] = Seq(
    Method("MTCSC-G",   "multivariate", "batch",  "constraint",               (c, _) => MtcscG(c.sc)),
    Method("MTCSC-L",   "multivariate", "online", "constraint",               (c, _) => MtcscL(c.sc)),
    Method("MTCSC-C",   "multivariate", "online", "constraint + statistical", (c, _) => MtcscC(c.sc)),
    Method("MTCSC-A",   "multivariate", "online", "constraint + statistical", (c, _) => MtcscA(c.sc)),
    Method("MTCSC-Uni", "univariate",   "online", "constraint + statistical", (c, _) => MtcscUni(c.uniScs), inTable3 = false),
    Method("SCREEN",    "univariate",   "online", "constraint",               (c, _) => Screen(c.uniScs)),
    // SpeedAcc's acceleration cap: symmetric, twice each speed limit
    Method("SpeedAcc",  "univariate",   "online", "constraint",               (c, _) => SpeedAcc(c.uniScs, c.uniScs.map(_.s * 2))),
    Method("LsGreedy",  "univariate",   "online", "statistical",              (_, _) => LsGreedy()),
    Method("EWMA",      "univariate",   "online", "smoothing",                (_, _) => Ewma()),
    Method("RCSWS",     "multivariate", "online", "constraint + statistical", (_, _) => Rcsws()),
    Method("HTD",       "multivariate", "batch",  "constraint",               (c, truth) => Htd.captureFromTruth(truth, c.sc.w)),
    Method("HoloClean", "multivariate", "batch",  "machine learning",         (c, _) => HoloCleanLite(c.uniScs)),
    Method("TranAD",    "multivariate", "online", "deep learning",            (_, _) => TranAdLite()),
    Method("CAE-M",     "multivariate", "online", "deep learning",            (_, _) => CaeMLite()),
  )

  /** The paper's Table 3 (dimension / process / type of each method). */
  val table3: Seq[Method] = registry.filter(_.inTable3)

  /** The standard method zoo for a comparison table: every registry
    * entry, MTCSC-G unless `includeG` is false, MTCSC-A only if
    * `includeAdaptive`.
    */
  def methods(cfg: Config, truth: Array[TimePoint], includeG: Boolean = true,
              includeAdaptive: Boolean = false): Seq[Cleaner] =
    registry
      .filter(m => (includeG || m.name != "MTCSC-G") && (includeAdaptive || m.name != "MTCSC-A"))
      .map(_.make(cfg, truth))

  /** Clean one series with one method through the Spark path and score it. */
  def run(spark: SparkSession, cleaner: Cleaner,
          dirty: Array[TimePoint], truth: Array[TimePoint]): ResultRow = {
    val ds = SparkCleaner.toDS(spark, Seq(0L -> dirty))
    val (repaired, ms) = Metrics.timed {
      SparkCleaner.collectSeries(SparkCleaner.clean(ds, cleaner))(0L)
    }
    score(cleaner.name, repaired, dirty, truth, ms)
  }

  def score(name: String, repaired: Array[TimePoint],
            dirty: Array[TimePoint], truth: Array[TimePoint], ms: Long): ResultRow =
    ResultRow(name, Metrics.rmse(repaired, truth), Metrics.repairDistance(repaired, dirty),
      Metrics.repairCount(repaired, dirty), Metrics.repairFraction(repaired, dirty), ms)

  /** Run a whole method zoo; prepends the Dirty row (no repair). */
  def runAll(spark: SparkSession, cleaners: Seq[Cleaner],
             dirty: Array[TimePoint], truth: Array[TimePoint]): Seq[ResultRow] = {
    val dirtyRow = ResultRow("Dirty", Metrics.rmse(dirty, truth), 0.0, 0, 0.0, 0)
    dirtyRow +: cleaners.map(c => run(spark, c, dirty, truth))
  }

  def formatTable(title: String, rows: Seq[ResultRow]): String = {
    val header = f"${"method"}%-10s ${"RMSE"}%8s ${"repairDist"}%10s ${"repairNum"}%15s ${"time"}%9s"
    (s"== $title ==" +: header +: rows.map(_.fmt(0))).mkString("\n")
  }
}
