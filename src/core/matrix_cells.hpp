// The one byte codec for dependency-matrix cells.
//
// The learner's durable state (snapshot files) and the ModelReply wire
// frame both carry a matrix as its n*n cells, row-major, one dep_code byte
// per cell with the diagonal written as ||.  This is the only place outside
// the lattice that translates between values and bytes.  Each caller frames
// the cells itself (the learner state knows n from its header, the wire
// frame writes a u16 n first) and passes its own error prefix, so decode
// errors name the surface they came from.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "lattice/dependency_matrix.hpp"
#include "trace/binary_codec.hpp"

namespace bbmg {

void append_matrix_cells(std::vector<std::uint8_t>& out,
                         const DependencyMatrix& m);

/// Reads the n*n cells of an n-task matrix.  A byte that is not a dep_code
/// raises "<error_prefix>invalid dependency value<value_context>"; a diagonal
/// cell other than || raises "<error_prefix>matrix diagonal must be
/// parallel".
[[nodiscard]] DependencyMatrix read_matrix_cells(
    ByteReader& r, std::size_t n, std::string_view error_prefix,
    std::string_view value_context = {});

}  // namespace bbmg
