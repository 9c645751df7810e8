#include "device/device_mappers.hpp"

#include <memory>
#include <utility>

#include "device/bonsai.hpp"
#include "device/device.hpp"
#include "device/treespilation.hpp"

namespace hatt::device {

namespace {

/** Resolve the required "device" option of a device-aware request. */
StatusOr<CouplingMap>
resolveRequestDevice(const MappingRequest &req)
{
    auto it = req.options.find("device");
    if (it == req.options.end())
        return Status::invalidArgument(
            "mapping '" + req.kind +
            "' is device-aware: the request must carry a device option "
            "(e.g. device=montreal, device=line:8)");
    return resolveDevice(it->second);
}

/** Option-bag validation shared by both kinds: only "device" is known. */
Status
checkDeviceOptions(const MappingRequest &req)
{
    for (const auto &[key, value] : req.options)
        if (key != "device")
            return Status::invalidArgument("mapping '" + req.kind +
                                           "': unknown option '" + key +
                                           "'");
    return Status();
}

class BonsaiMapper final : public Mapper
{
  public:
    BonsaiMapper()
    {
        caps_.needsHamiltonian = false;
        caps_.producesTree = true;
        caps_.vacuumPreserving = true;
        caps_.deviceAware = true;
        caps_.summary = "device-grown ternary tree (Bonsai), every tree "
                        "edge a coupling edge (options: device=<name>)";
    }

    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }

    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        if (Status s = checkDeviceOptions(req); !s.ok())
            return s;
        StatusOr<CouplingMap> dev = resolveRequestDevice(req);
        if (!dev.ok())
            return dev.status();
        const uint32_t modes =
            req.poly ? req.poly->numModes() : req.numModes;
        StatusOr<BonsaiResult> grown = growBonsaiTree(modes, dev.value());
        if (!grown.ok())
            return grown.status();
        MappingResult out;
        out.mapping =
            vacuumPairedMappingFromTree(grown->tree, "Bonsai");
        out.tree = std::move(grown->tree);
        return out;
    }

  private:
    std::string name_ = "bonsai";
    MapperCapabilities caps_;
};

class TreespilationMapper final : public Mapper
{
  public:
    TreespilationMapper()
    {
        caps_.needsHamiltonian = true;
        caps_.producesTree = true;
        caps_.vacuumPreserving = true;
        caps_.deviceAware = true;
        caps_.summary = "architecture-optimised tree selection "
                        "(Treespilation) over HATT/Bonsai/BTT candidates "
                        "(options: device=<name>)";
    }

    const std::string &name() const override { return name_; }
    const MapperCapabilities &capabilities() const override { return caps_; }

    StatusOr<MappingResult>
    build(const MappingRequest &req) const override
    {
        if (Status s = checkDeviceOptions(req); !s.ok())
            return s;
        StatusOr<CouplingMap> dev = resolveRequestDevice(req);
        if (!dev.ok())
            return dev.status();
        StatusOr<TreespilationResult> res = buildTreespilationMapping(
            *req.poly, dev.value(), req.limits);
        if (!res.ok())
            return res.status();
        MappingResult out;
        out.mapping = std::move(res->mapping);
        out.tree = std::move(res->tree);
        out.metrics.candidates = res->candidatesEvaluated;
        out.metrics.counters["estimated_cost"] = res->estimatedCost;
        return out;
    }

  private:
    std::string name_ = "treespilation";
    MapperCapabilities caps_;
};

} // namespace

void
registerDeviceMappers(MapperRegistry &reg)
{
    reg.add(std::make_unique<BonsaiMapper>());
    reg.add(std::make_unique<TreespilationMapper>());
}

} // namespace hatt::device
