#include "dataflow/plan.hpp"

#include <sstream>

namespace mocha::dataflow {

const char* loop_order_name(LoopOrder order) {
  switch (order) {
    case LoopOrder::WeightStationary:
      return "WS";
    case LoopOrder::InputStationary:
      return "IS";
  }
  MOCHA_UNREACHABLE("bad LoopOrder");
}

std::string LayerPlan::summary() const {
  std::ostringstream os;
  os << "tile " << tile.th << "x" << tile.tw << " tc" << tile.tc << " tm"
     << tile.tm << " " << loop_order_name(order) << " par " << inter_groups
     << "x" << intra_groups << " codecs[" << compress::codec_name(ifmap_codec)
     << "/" << compress::codec_name(kernel_codec) << "/"
     << compress::codec_name(ofmap_codec) << "]";
  if (fuse_with_next) os << " +fuse";
  return os.str();
}

LayerPlan whole_layer_plan(const nn::LayerSpec& layer) {
  LayerPlan plan;
  plan.tile = {layer.out_h(), layer.out_w(), layer.in_c,
               layer.out_channels()};
  return plan;
}

std::vector<NetworkPlan::Group> NetworkPlan::fusion_groups() const {
  std::vector<Group> groups;
  std::size_t first = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const bool chain = layers[i].fuse_with_next && i + 1 < layers.size();
    if (!chain) {
      groups.push_back({first, i});
      first = i + 1;
    }
  }
  return groups;
}

void NetworkPlan::validate(const nn::Network& net) const {
  MOCHA_CHECK(layers.size() == net.layers.size(),
              "plan covers " << layers.size() << " of " << net.layers.size()
                             << " layers");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerPlan& plan = layers[i];
    const nn::LayerSpec& layer = net.layers[i];
    MOCHA_CHECK(plan.tile.th >= 1 && plan.tile.th <= layer.out_h(),
                layer.name << ": th=" << plan.tile.th);
    MOCHA_CHECK(plan.tile.tw >= 1 && plan.tile.tw <= layer.out_w(),
                layer.name << ": tw=" << plan.tile.tw);
    MOCHA_CHECK(plan.tile.tc >= 1 && plan.tile.tc <= layer.in_c,
                layer.name << ": tc=" << plan.tile.tc);
    MOCHA_CHECK(plan.tile.tm >= 1 && plan.tile.tm <= layer.out_channels(),
                layer.name << ": tm=" << plan.tile.tm);
    MOCHA_CHECK(plan.inter_groups >= 1 && plan.intra_groups >= 1,
                layer.name << ": bad parallelism split");
    MOCHA_CHECK(plan.batch_tile >= 0, layer.name << ": bad batch_tile");
  }
  // Non-head members of a fusion group must process full channel depth so
  // the producer tile feeds the consumer without cross-pass accumulation
  // in DRAM.
  for (const Group& group : fusion_groups()) {
    for (std::size_t i = group.first + 1; i <= group.last; ++i) {
      MOCHA_CHECK(layers[i].tile.tc == net.layers[i].in_c,
                  net.layers[i].name
                      << ": fused member must take tc = in_c");
      MOCHA_CHECK(layers[i].tile.tm == net.layers[i].out_channels(),
                  net.layers[i].name
                      << ": fused member must take tm = out_c");
    }
    if (group.size() > 1) {
      MOCHA_CHECK(layers[group.first].tile.tm ==
                      net.layers[group.first].out_channels(),
                  net.layers[group.first].name
                      << ": fusion head must produce all maps per tile");
    }
  }
}

}  // namespace mocha::dataflow
