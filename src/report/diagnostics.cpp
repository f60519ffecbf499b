#include "report/diagnostics.h"

namespace dsmt::report {

Json diag_to_json(const core::SolverDiag& diag) {
  Json root = Json::object();
  root.set("kernel", Json::string(diag.kernel))
      .set("status", Json::string(core::status_name(diag.status)))
      .set("iterations", Json::integer(diag.iterations))
      .set("residual", Json::number_or_null(diag.residual))
      .set("recovered", Json::boolean(diag.recovered));
  Json chain = Json::array();
  for (const auto& ev : diag.chain) {
    Json entry = Json::object();
    entry.set("kernel", Json::string(ev.kernel))
        .set("status", Json::string(core::status_name(ev.status)))
        .set("iterations", Json::integer(ev.iterations))
        .set("residual", Json::number_or_null(ev.residual));
    if (!ev.note.empty()) entry.set("note", Json::string(ev.note));
    chain.push(std::move(entry));
  }
  root.set("chain", std::move(chain));
  return root;
}

void write_diag(JsonWriter& writer, const core::SolverDiag& diag) {
  writer.begin_object()
      .key("kernel").string(diag.kernel)
      .key("status").string(core::status_name(diag.status))
      .key("iterations").integer(diag.iterations)
      .key("residual").number_or_null(diag.residual)
      .key("recovered").boolean(diag.recovered)
      .key("chain").begin_array();
  for (const auto& ev : diag.chain) {
    writer.item()
        .begin_object()
        .key("kernel").string(ev.kernel)
        .key("status").string(core::status_name(ev.status))
        .key("iterations").integer(ev.iterations)
        .key("residual").number_or_null(ev.residual);
    if (!ev.note.empty()) writer.key("note").string(ev.note);
    writer.end_object();
  }
  writer.end_array().end_object();
}

Json run_to_json(const core::RunContext& context) {
  Json run = Json::object();
  run.set("deadline_armed", Json::boolean(context.has_deadline()));
  if (context.has_deadline())
    run.set("deadline_remaining_s", Json::number(context.seconds_remaining()));
  run.set("cancelled", Json::boolean(context.cancel().cancel_requested()))
      .set("beats", Json::integer(static_cast<long long>(context.beats())));
  return run;
}

}  // namespace dsmt::report
