#include "core/proposal.h"

namespace shp {

bool ProposalContext::ContextMatches(const MoveTopology& topo,
                                     const std::vector<BucketId>* anchor,
                                     double anchor_penalty, bool push) const {
  if (!has_topo_ || push_ != push) return false;
  if (topo_.k != topo.k || topo_.full_k != topo.full_k ||
      topo_.group_of_bucket != topo.group_of_bucket ||
      topo_.group_children != topo.group_children) {
    return false;
  }
  const bool has_anchor = anchor != nullptr && anchor_penalty != 0.0;
  if (has_anchor != has_anchor_) return false;
  return !has_anchor ||
         (anchor_penalty_ == anchor_penalty && anchor_ == *anchor);
}

void ProposalContext::SnapshotContext(const MoveTopology& topo,
                                      const std::vector<BucketId>* anchor,
                                      double anchor_penalty, bool push) {
  topo_ = topo;
  has_topo_ = true;
  has_anchor_ = anchor != nullptr && anchor_penalty != 0.0;
  anchor_ = has_anchor_ ? *anchor : std::vector<BucketId>{};
  anchor_penalty_ = has_anchor_ ? anchor_penalty : 0.0;
  push_ = push;
}

}  // namespace shp
