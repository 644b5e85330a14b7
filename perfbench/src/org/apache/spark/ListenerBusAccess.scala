package org.apache.spark

/** Waits until every queued listener event has been delivered, so the
  * benchmark's listener totals are complete when it reads them. The bus
  * is package-private to Spark, hence this file's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
