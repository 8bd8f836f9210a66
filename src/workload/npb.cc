#include "workload/npb.hh"

#include "sim/logging.hh"
#include "workload/kernels/kernels.hh"

#ifndef CENJU_SOURCE_DIR
#define CENJU_SOURCE_DIR "."
#endif

namespace cenju
{

std::unique_ptr<NpbApp>
makeNpbApp(AppKind app, Variant variant, const NpbConfig &cfg)
{
    using namespace kernels;
    switch (app) {
      case AppKind::BT:
        switch (variant) {
          case Variant::Seq:
            return makeBtSeq(cfg);
          case Variant::Mpi:
            return makeBtMpi(cfg);
          case Variant::Dsm1:
            return makeBtDsm1(cfg);
          case Variant::Dsm2:
            return makeBtDsm2(cfg);
        }
        break;
      case AppKind::CG:
        switch (variant) {
          case Variant::Seq:
            return makeCgSeq(cfg);
          case Variant::Mpi:
            return makeCgMpi(cfg);
          case Variant::Dsm1:
            return makeCgDsm1(cfg);
          case Variant::Dsm2:
            return makeCgDsm2(cfg);
        }
        break;
      case AppKind::FT:
        switch (variant) {
          case Variant::Seq:
            return makeFtSeq(cfg);
          case Variant::Mpi:
            return makeFtMpi(cfg);
          case Variant::Dsm1:
            return makeFtDsm1(cfg);
          case Variant::Dsm2:
            return makeFtDsm2(cfg);
        }
        break;
      case AppKind::SP: {
        // SP is BT's program with SP's lighter per-point work.
        NpbConfig sp = cfg;
        if (sp.pointWork == 0)
            sp.pointWork = spPointWork;
        return makeNpbApp(AppKind::BT, variant, sp);
      }
    }
    panic("makeNpbApp: bad app/variant");
}

RunStats
runNpb(DsmSystem &sys, NpbApp &app)
{
    app.setup(sys);
    return sys.run(
        [&app](Env &env) -> Task { return app.program(env); });
}

std::string
npbSourcePath(AppKind app, Variant variant)
{
    if (app == AppKind::SP)
        app = AppKind::BT; // SP runs BT's program (makeNpbApp)
    std::string name = nameOf(app);
    for (auto &c : name)
        c = static_cast<char>(std::tolower(c));
    return std::string(CENJU_SOURCE_DIR) +
           "/src/workload/kernels/" + name + "_" +
           nameOf(variant) + ".cc";
}

} // namespace cenju
