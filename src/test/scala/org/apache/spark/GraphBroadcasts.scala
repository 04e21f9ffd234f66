package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId
import repro.graph.CompactGraph

/** Test access to the driver's block store, which is `private[spark]`. */
object GraphBroadcasts {

  /** Ids of the broadcasts whose value the driver holds as a [[CompactGraph]]. */
  def held(): Seq[Long] = {
    val bm = SparkEnv.get.blockManager
    bm.getMatchingBlockIds(_.isBroadcast).collect {
      case id @ BroadcastBlockId(broadcastId, "")
          if bm.getLocalValues(id).exists(_.data.toList.exists(_.isInstanceOf[CompactGraph])) =>
        broadcastId
    }
  }
}
