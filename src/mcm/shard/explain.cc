#include "mcm/shard/explain.h"

#include <sstream>
#include <string>
#include <vector>

#include "mcm/common/table_printer.h"
#include "mcm/obs/export.h"

namespace mcm {
namespace shard {

std::string RenderShardExplainText(const ShardExplainReport& report) {
  std::ostringstream out;
  out << "Shard scatter (" << report.kind;
  if (report.kind == "range") {
    out << ", radius " << TablePrinter::Num(report.radius, 4);
  } else {
    out << ", k=" << report.k;
  }
  out << "): " << report.dispatched << "/" << report.num_shards
      << " shards dispatched, " << report.skipped << " skipped, "
      << report.results << " results\n";
  TablePrinter table({"shard", "objects", "decision", "pivot dist",
                      "lower_bound",
                      "pred nodes", "act nodes", "pred dists", "act dists",
                      "results", "radius sent"});
  for (const ShardExplainRow& row : report.rows) {
    table.AddRow({std::to_string(row.shard), std::to_string(row.objects),
                  row.reason, TablePrinter::Num(row.pivot_distance, 4),
                  TablePrinter::Num(row.lower_bound, 4),
                  TablePrinter::Num(row.predicted_nodes, 1),
                  std::to_string(row.actual_nodes),
                  TablePrinter::Num(row.predicted_dists, 1),
                  std::to_string(row.actual_dists),
                  std::to_string(row.results),
                  row.dispatched ? TablePrinter::Num(row.radius_sent, 4)
                                 : "-"});
  }
  table.AddRow({"total", "", "", "", "",
                TablePrinter::Num(report.predicted_nodes, 1),
                std::to_string(report.actual_nodes), "",
                std::to_string(report.actual_dists),
                std::to_string(report.results), ""});
  table.Print(out);
  return out.str();
}

std::string RenderShardExplainJson(const ShardExplainReport& report) {
  std::string rows = "[";
  for (size_t i = 0; i < report.rows.size(); ++i) {
    const ShardExplainRow& row = report.rows[i];
    JsonObjectBuilder obj;
    obj.Add("shard", static_cast<unsigned long long>(row.shard));
    obj.Add("objects", static_cast<unsigned long long>(row.objects));
    obj.Add("dispatched", row.dispatched);
    obj.Add("reason", row.reason);
    obj.Add("pivot_distance", row.pivot_distance);
    obj.Add("lower_bound", row.lower_bound);
    obj.Add("predicted_nodes", row.predicted_nodes);
    obj.Add("predicted_dists", row.predicted_dists);
    obj.Add("actual_nodes",
            static_cast<unsigned long long>(row.actual_nodes));
    obj.Add("actual_dists",
            static_cast<unsigned long long>(row.actual_dists));
    obj.Add("results", static_cast<unsigned long long>(row.results));
    obj.Add("radius_sent", row.radius_sent);
    if (i > 0) rows += ",";
    rows += obj.Build();
  }
  rows += "]";

  JsonObjectBuilder obj;
  obj.Add("kind", report.kind);
  if (report.kind == "range") {
    obj.Add("radius", report.radius);
  } else {
    obj.Add("k", static_cast<unsigned long long>(report.k));
  }
  obj.Add("num_shards", static_cast<unsigned long long>(report.num_shards));
  obj.Add("dispatched", static_cast<unsigned long long>(report.dispatched));
  obj.Add("skipped", static_cast<unsigned long long>(report.skipped));
  obj.Add("predicted_nodes", report.predicted_nodes);
  obj.Add("actual_nodes",
          static_cast<unsigned long long>(report.actual_nodes));
  obj.Add("actual_dists",
          static_cast<unsigned long long>(report.actual_dists));
  obj.Add("results", static_cast<unsigned long long>(report.results));
  obj.AddRaw("rows", rows);
  return obj.Build();
}

}  // namespace shard
}  // namespace mcm
