package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.Sampled.forAllSampled

/** The production kernels against [[ReferenceKernels]]: MTCSC-G's early
  * exit, MTCSC-C's flag-array representative and MTCSC-A's incremental
  * histograms must give exactly what the plain recomputation gives.
  */
class KernelOracleSpec extends AnyFunSuite {

  private def assertSameFixList(xs: Array[TimePoint], sc: SpeedConstraint): Unit = {
    val got = MtcscG.fixList(xs, sc).toSeq
    val want = ReferenceKernels.gFixList(xs, sc).toSeq
    assert(got == want, s"s=${sc.s} n=${xs.length}")
  }

  private val sGen: Gen[SpeedConstraint] = for {
    s <- Gen.choose(0.2, 5.0)
    w <- Gen.choose(1, 8)
  } yield SpeedConstraint(s, w.toDouble)

  test("MTCSC-G early exit equals the full DP on random series") {
    val g = for {
      n <- Gen.choose(1, 80)
      d <- Gen.choose(1, 3)
      vals <- Gen.listOfN(n * d, Gen.choose(-10.0, 10.0))
      sc <- sGen
    } yield (vals.grouped(d).zipWithIndex.map { case (v, i) => TimePoint(i.toDouble, v.toArray) }.toArray, sc)
    forAllSampled(g, 200) { case (xs, sc) => assertSameFixList(xs, sc) }
  }

  test("MTCSC-G early exit equals the full DP with duplicate timestamps and tied chains") {
    // Steps of 0 repeat a timestamp; values on a coarse grid make many
    // earlier points reach the same dp, so the smallest-j tie-break decides.
    val g = for {
      n <- Gen.choose(2, 80)
      steps <- Gen.listOfN(n, Gen.oneOf(0.0, 0.0, 1.0, 1.0, 2.0))
      vals <- Gen.listOfN(n, Gen.choose(0, 3))
      s <- Gen.oneOf(0.5, 1.0, 1.5)
    } yield {
      val ts = steps.scanLeft(0.0)(_ + _).tail
      (ts.zip(vals).map { case (t, v) => TimePoint.uni(t, v.toDouble) }.toArray, SpeedConstraint(s, 4.0))
    }
    forAllSampled(g, 300) { case (xs, sc) => assertSameFixList(xs, sc) }
  }

  test("MTCSC-G early exit equals the full DP on isolated huge spikes under a tight s") {
    val g = for {
      n <- Gen.choose(50, 400)
      spikes <- Gen.listOfN(n / 10, Gen.choose(0, n - 1))
      mag <- Gen.choose(1e3, 1e7)
    } yield {
      val xs = Array.tabulate(n)(i => TimePoint(i.toDouble, Array(i * 0.1, 1.0)))
      for (i <- spikes) xs(i).v(0) += mag * (if (i % 2 == 0) 1 else -1)
      (xs, SpeedConstraint(0.1, 2.0))
    }
    forAllSampled(g, 40) { case (xs, sc) => assertSameFixList(xs, sc) }
  }

  test("MTCSC-C representative is the first point of the first largest cluster") {
    // A coarse value grid and small windows give many equal-size clusters.
    val g = for {
      n <- Gen.choose(0, 12)
      offset <- Gen.choose(0, 3)
      p <- Gen.choose(0, 3)
      vals <- Gen.listOfN(n + offset, Gen.choose(0, 4))
      s <- Gen.oneOf(0.5, 1.0, 2.0)
    } yield (TimePoint.uni(0, p.toDouble),
      vals.zipWithIndex.map { case (v, i) => TimePoint.uni(i + 1.0 - offset, v.toDouble) }.toArray,
      offset, SpeedConstraint(s, 20.0))
    val ws = new MtcscC.Workspace // shared, so stale flags of earlier windows are present
    var ties = 0
    forAllSampled(g, 2000) { case (p, xs, from, sc) =>
      val window = xs.drop(from)
      val clusters = MtcscC.buildClusters(p, window, sc)
      assert(clusters == ReferenceKernels.buildClusters(p, window, sc))
      val rep = MtcscC.representative(p, xs, from, xs.length, sc, ws)
      if (clusters.isEmpty) assert(rep == -1)
      else {
        assert(rep == clusters.maxBy(_.size).head)
        val largest = clusters.map(_.size).max
        if (clusters.count(_.size == largest) > 1) ties += 1
      }
    }
    assert(ties > 100, s"only $ties windows with equal-size largest clusters")
  }

  test("MTCSC-A incremental state equals recomputation from explicit windows, step by step") {
    // Slow and fast phases force re-captures; steps of 0 and -1 in t are skipped.
    val g = for {
      m <- Gen.choose(1, 12)
      b <- Gen.choose(2, 8)
      tau <- Gen.choose(0.05, 1.0)
      beta <- Gen.choose(0.5, 1.0)
      n <- Gen.choose(0, 300)
      dts <- Gen.listOfN(n, Gen.frequency(8 -> Gen.const(1.0), 1 -> Gen.const(0.0), 1 -> Gen.const(-1.0), 1 -> Gen.const(2.5)))
      phase <- Gen.choose(5, 60)
      jitter <- Gen.listOfN(n, Gen.choose(-0.3, 0.3))
    } yield {
      var t, x = 0.0
      val xs = dts.zip(jitter).zipWithIndex.map { case ((dt, j), i) =>
        t += dt
        x += (if ((i / phase) % 2 == 0) 0.4 else 3.0) + j
        TimePoint.uni(t, x)
      }.toArray
      (m, b, tau, beta, xs)
    }
    var recaptures, multiRecaptureRuns, skips = 0
    forAllSampled(g, 300) { case (m, b, tau, beta, xs) =>
      val fast = new MtcscA.AdaptiveState(b, tau, m, beta)
      val ref = new ReferenceKernels.AdaptiveState(b, tau, m, beta)
      var s = 1.0
      var changes = 0
      for (k <- 1 until xs.length) {
        if (xs(k).t <= xs(k - 1).t) skips += 1
        val want = ref.update(xs(k - 1), xs(k), s)
        val got = fast.update(xs(k - 1), xs(k), s)
        assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want),
          s"step $k (m=$m b=$b tau=$tau): got $got want $want")
        if (want != s) changes += 1
        s = want
      }
      recaptures += changes
      if (changes >= 2) multiRecaptureRuns += 1
    }
    assert(recaptures > 500 && multiRecaptureRuns > 50 && skips > 1000,
      s"recaptures=$recaptures multi=$multiRecaptureRuns skips=$skips")
  }
}
