package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{SpeedConstraint, TimePoint}
import repro.eval.{Experiments, Harness}

/** Table 3 — summary of compared methods; checks the registry matches
  * the implementations that actually exist.
  */
class Table3Bench extends AnyFunSuite {

  test("Table 3: summary of compared methods") {
    println("== Table 3: Summary of compared methods ==")
    println(Experiments.formatTable3())

    val names = Harness.table3.map(_.name)
    assert(names.size == 13)
    assert(names.count(_.startsWith("MTCSC")) == 4)
    // every registry entry's factory builds a cleaner with that entry's name
    val sc = SpeedConstraint(1.0, 5.0)
    val cfg = Harness.Config(sc, Array(sc))
    val truth = Array.tabulate(10)(i => TimePoint.uni(i.toDouble, i.toDouble))
    Harness.registry.foreach(m => assert(m.make(cfg, truth).name == m.name))
  }
}
