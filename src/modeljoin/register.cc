#include "modeljoin/register.h"

#include "common/config.h"
#include "modeljoin/model_registry.h"
#include "modeljoin/modeljoin_operator.h"

namespace indbml::modeljoin {

device::Device* DefaultDevice(const std::string& name) {
  if (name == "gpu" || name == "simgpu") return device::SharedSimGpuDevice();
  return device::SharedCpuDevice();
}

void RegisterNativeModelJoin(sql::QueryEngine* engine, DeviceProvider provider) {
  if (provider == nullptr) {
    provider = [](const std::string& name) { return DefaultDevice(name); };
  }

  sql::ModelJoinStateFactory state_factory =
      [provider](const sql::ModelJoinStateArgs& args)
      -> Result<std::shared_ptr<void>> {
    device::Device* device = provider(args.device);
    if (device == nullptr) {
      return Status::InvalidArgument("unknown ModelJoin device: " + args.device);
    }
    // Either way the model is complete when the factory returns.
    std::shared_ptr<inference::SharedModel> model;
    if (args.shared) {
      // Serving path: resolve through the process-wide registry so
      // concurrent queries over the same (model, device) build once.
      INDBML_ASSIGN_OR_RETURN(
          model, SharedModelRegistry::Global().GetOrBuild(
                     args.meta, device, args.device, args.model_table,
                     kDefaultVectorSize));
    } else {
      // The paper's per-query build (§5.2), parsed on the build pool.
      INDBML_ASSIGN_OR_RETURN(
          model, inference::SharedModel::FromTable(
                     args.meta, device, kDefaultVectorSize, *args.model_table,
                     args.build_pool));
    }
    return std::shared_ptr<void>(std::move(model));
  };

  sql::ModelJoinOperatorFactory operator_factory =
      [](sql::ModelJoinPhysicalArgs args) -> Result<exec::OperatorPtr> {
    auto model =
        std::static_pointer_cast<inference::SharedModel>(args.shared_state);
    // The SQL layer carries the knobs as a plain struct (it sits below
    // src/inference in the include layering); convert at this boundary.
    inference::InferenceOptions inference;
    inference.batch_window_us = args.inference.batch_window_us;
    inference.max_batch_rows = args.inference.max_batch_rows;
    inference.use_cache = args.inference.result_cache;
    return exec::OperatorPtr(std::make_unique<ModelJoinOperator>(
        std::move(args.child), std::move(model),
        std::move(args.input_column_indexes), std::move(args.prediction_names),
        inference));
  };

  engine->SetModelJoinFactories(std::move(state_factory),
                                std::move(operator_factory));
}

}  // namespace indbml::modeljoin
