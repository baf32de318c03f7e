#include "ml/arff.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace hmd::ml {

void write_arff(std::ostream& out, const Dataset& data) {
  out << "@relation " << data.relation() << "\n\n";
  for (std::size_t i = 0; i < data.num_attributes(); ++i) {
    const Attribute& a = data.attribute(i);
    out << "@attribute '" << a.name() << "' ";
    if (a.is_nominal()) {
      out << '{';
      for (std::size_t v = 0; v < a.num_values(); ++v) {
        if (v) out << ',';
        out << a.values()[v];
      }
      out << "}\n";
    } else {
      out << "numeric\n";
    }
  }
  out << "\n@data\n";
  for (std::size_t i = 0; i < data.num_instances(); ++i) {
    const auto inst = data.instance(i);
    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
      if (a) out << ',';
      const Attribute& attr = data.attribute(a);
      if (attr.is_nominal())
        out << attr.values()[static_cast<std::size_t>(inst.values[a])];
      else
        out << format("%.17g", inst.values[a]);  // exact round trip
    }
    out << '\n';
  }
}

namespace {

/// Parses "@attribute 'name' numeric" or "@attribute name {a,b,c}".
Attribute parse_attribute_line(std::string_view body, std::size_t lineno) {
  std::string_view rest = trim(body);
  std::string name;
  if (!rest.empty() && (rest.front() == '\'' || rest.front() == '"')) {
    const char quote = rest.front();
    const std::size_t end = rest.find(quote, 1);
    if (end == std::string_view::npos)
      throw ParseError("ARFF line " + std::to_string(lineno) +
                       ": unterminated attribute name");
    name = std::string(rest.substr(1, end - 1));
    rest = trim(rest.substr(end + 1));
  } else {
    const std::size_t sp = rest.find_first_of(" \t");
    if (sp == std::string_view::npos)
      throw ParseError("ARFF line " + std::to_string(lineno) +
                       ": attribute missing type");
    name = std::string(rest.substr(0, sp));
    rest = trim(rest.substr(sp));
  }
  if (istarts_with(rest, "numeric") || istarts_with(rest, "real") ||
      istarts_with(rest, "integer"))
    return Attribute(name);
  if (!rest.empty() && rest.front() == '{') {
    const std::size_t close = rest.find('}');
    if (close == std::string_view::npos)
      throw ParseError("ARFF line " + std::to_string(lineno) +
                       ": unterminated nominal spec");
    std::vector<std::string> values;
    for (const auto& v : split(rest.substr(1, close - 1), ','))
      values.emplace_back(trim(v));
    return Attribute(name, std::move(values));
  }
  throw ParseError("ARFF line " + std::to_string(lineno) +
                   ": unsupported attribute type: " + std::string(rest));
}

}  // namespace

namespace {

/// The actual parser; throws ParseError on malformed input.
Dataset read_arff_impl(std::istream& in) {
  std::string relation = "unnamed";
  std::vector<Attribute> attributes;
  bool in_data = false;
  Dataset dataset;
  bool dataset_ready = false;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view t = trim(line);
    if (t.empty() || t.front() == '%') continue;
    if (!in_data) {
      if (istarts_with(t, "@relation")) {
        relation = std::string(trim(t.substr(9)));
      } else if (istarts_with(t, "@attribute")) {
        attributes.push_back(parse_attribute_line(t.substr(10), lineno));
      } else if (istarts_with(t, "@data")) {
        if (attributes.size() < 2 || !attributes.back().is_nominal())
          throw ParseError(
              "ARFF: need >= 2 attributes with a nominal class last");
        dataset = Dataset(attributes, relation);
        dataset_ready = true;
        in_data = true;
      } else {
        throw ParseError("ARFF line " + std::to_string(lineno) +
                         ": unexpected header line");
      }
      continue;
    }
    const auto cells = split(std::string(t), ',');
    if (cells.size() != attributes.size())
      throw ParseError("ARFF line " + std::to_string(lineno) +
                       ": wrong field count");
    Instance inst;
    inst.values.reserve(cells.size());
    for (std::size_t a = 0; a < cells.size(); ++a) {
      const std::string_view cell = trim(cells[a]);
      if (attributes[a].is_nominal())
        inst.values.push_back(
            static_cast<double>(attributes[a].value_index(cell)));
      else
        inst.values.push_back(parse_double(cell));
    }
    dataset.add(std::move(inst));
  }
  if (!dataset_ready) throw ParseError("ARFF: missing @data section");
  if (dataset.num_instances() == 0)
    throw ParseError("ARFF: empty @data section");
  return dataset;
}

}  // namespace

Result<Dataset> try_read_arff(std::istream& in) {
  return capture_result([&in] { return read_arff_impl(in); })
      .with_context("reading ARFF");
}

Dataset read_arff(std::istream& in) {
  // Thin throwing wrapper: value() raises the ErrorInfo as a ParseError.
  return try_read_arff(in).value();
}

Dataset dataset_from_csv(const CsvTable& table,
                         const std::vector<std::string>& class_values) {
  HMD_REQUIRE(table.header.size() >= 2,
              "CSV needs at least one feature column plus the class");
  const std::size_t class_col = table.header.size() - 1;

  std::vector<std::string> values = class_values;
  if (values.empty()) {
    for (const auto& row : table.rows) {
      const std::string& v = row[class_col];
      if (std::find(values.begin(), values.end(), v) == values.end())
        values.push_back(v);
    }
    HMD_REQUIRE(!values.empty(), "CSV has no data rows");
  }

  std::vector<Attribute> attrs;
  for (std::size_t c = 0; c < class_col; ++c)
    attrs.emplace_back(table.header[c]);
  attrs.emplace_back(table.header[class_col], values);
  Dataset data(std::move(attrs));

  for (const auto& row : table.rows) {
    Instance inst;
    inst.values.reserve(row.size());
    for (std::size_t c = 0; c < class_col; ++c)
      inst.values.push_back(parse_double(row[c]));
    inst.values.push_back(static_cast<double>(
        data.class_attribute().value_index(row[class_col])));
    data.add(std::move(inst));
  }
  return data;
}

void write_dataset_csv(std::ostream& out, const Dataset& data) {
  CsvWriter writer(out);
  std::vector<std::string> header;
  for (const Attribute& a : data.attributes()) header.push_back(a.name());
  writer.write_row(header);
  for (std::size_t i = 0; i < data.num_instances(); ++i) {
    const auto inst = data.instance(i);
    std::vector<std::string> row;
    row.reserve(inst.values.size());
    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
      const Attribute& attr = data.attribute(a);
      if (attr.is_nominal())
        row.push_back(attr.values()[static_cast<std::size_t>(inst.values[a])]);
      else
        row.push_back(format("%.17g", inst.values[a]));  // exact round trip
    }
    writer.write_row(row);
  }
}

}  // namespace hmd::ml
