#include "sim/net_adapter.hpp"

#include "noc/network.hpp"
#include "sdm/sdm_network.hpp"
#include "tdm/hybrid_network.hpp"

namespace hybridnoc {

namespace {

/// Adapter over the Router/NI fabric (packet-switched and TDM hybrid).
class MeshAdapter final : public NetAdapter {
 public:
  explicit MeshAdapter(std::unique_ptr<Network> net) : net_(std::move(net)) {}

  void tick() override { net_->tick(); }
  Cycle now() const override { return net_->now(); }
  const Mesh& mesh() const override { return net_->mesh(); }

  void send(PacketPtr pkt) override {
    net_->ni(pkt->src).send(std::move(pkt), net_->now());
  }
  int inject_queue_depth(NodeId n) const override {
    return net_->ni(n).inject_queue_depth();
  }

  void set_deliver_handler(const DeliverFn& fn) override {
    net_->set_deliver_handler(fn);
  }
  void set_policy_frozen(bool frozen) override { net_->set_policy_frozen(frozen); }
  bool quiescent() const override { return net_->quiescent(); }

  EnergyCounters energy() const override { return net_->total_energy(); }
  std::uint64_t data_sent() const override { return ni(NiCounter::DataPacketsSent); }
  std::uint64_t data_delivered() const override {
    return ni(NiCounter::DataPacketsDelivered);
  }
  std::uint64_t ps_flits() const override { return ni(NiCounter::PsDataFlits); }
  std::uint64_t cs_flits() const override { return ni(NiCounter::CsDataFlits); }
  std::uint64_t config_flits() const override { return ni(NiCounter::ConfigFlits); }
  std::uint64_t flits_of_class(TrafficClass c) const override {
    return net_->total_flits_of_class(c);
  }
  const Network* mesh_network() const override { return net_.get(); }
  Network* mesh_network_mut() override { return net_.get(); }

 private:
  std::uint64_t ni(NiCounter c) const { return net_->ni_counters()[c]; }

  std::unique_ptr<Network> net_;
};

class SdmAdapter final : public NetAdapter {
 public:
  explicit SdmAdapter(const NocConfig& cfg)
      : net_(std::make_unique<SdmNetwork>(cfg)) {}

  void tick() override { net_->tick(); }
  Cycle now() const override { return net_->now(); }
  const Mesh& mesh() const override { return net_->mesh(); }

  void send(PacketPtr pkt) override { net_->send(std::move(pkt)); }
  int inject_queue_depth(NodeId) const override { return 0; }

  void set_deliver_handler(const DeliverFn& fn) override {
    net_->set_deliver_handler(fn);
  }
  void set_policy_frozen(bool frozen) override { net_->set_policy_frozen(frozen); }
  bool quiescent() const override { return net_->quiescent(); }

  EnergyCounters energy() const override { return {}; }
  std::uint64_t data_sent() const override { return net_->total_data_sent(); }
  std::uint64_t data_delivered() const override {
    return net_->total_data_delivered();
  }
  std::uint64_t ps_flits() const override { return 0; }
  std::uint64_t cs_flits() const override { return 0; }
  std::uint64_t config_flits() const override { return 0; }
  std::uint64_t flits_of_class(TrafficClass) const override { return 0; }

 private:
  std::unique_ptr<SdmNetwork> net_;
};

}  // namespace

std::unique_ptr<NetAdapter> make_network(const NocConfig& cfg) {
  switch (cfg.arch) {
    case RouterArch::PacketSwitched:
      return std::make_unique<MeshAdapter>(std::make_unique<Network>(cfg));
    case RouterArch::HybridTdm:
      return std::make_unique<MeshAdapter>(std::make_unique<HybridNetwork>(cfg));
    case RouterArch::HybridSdm:
      return std::make_unique<SdmAdapter>(cfg);
  }
  HN_CHECK_MSG(false, "unknown router architecture");
  return nullptr;
}

}  // namespace hybridnoc
