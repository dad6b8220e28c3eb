#include "core/matrix_cells.hpp"

#include <string>

#include "common/error.hpp"

namespace bbmg {

void append_matrix_cells(std::vector<std::uint8_t>& out,
                         const DependencyMatrix& m) {
  for (std::size_t a = 0; a < m.num_tasks(); ++a) {
    for (std::size_t b = 0; b < m.num_tasks(); ++b) {
      append_u8(out, dep_code(m.at(a, b)));
    }
  }
}

DependencyMatrix read_matrix_cells(ByteReader& r, std::size_t n,
                                   std::string_view error_prefix,
                                   std::string_view value_context) {
  DependencyMatrix m(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const std::optional<DepValue> v = dep_from_code(r.read_u8());
      if (!v) {
        raise(std::string(error_prefix) + "invalid dependency value" +
              std::string(value_context));
      }
      if (a == b) {
        if (*v != DepValue::Parallel) {
          raise(std::string(error_prefix) +
                "matrix diagonal must be parallel");
        }
        continue;
      }
      m.set(a, b, *v);
    }
  }
  return m;
}

}  // namespace bbmg
