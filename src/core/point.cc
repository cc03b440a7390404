// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/point.h"

#include <sstream>

namespace monoclass {

std::string Point::ToString() const {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < coordinates_.size(); ++i) {
    if (i > 0) out << ", ";
    out << coordinates_[i];
  }
  out << ")";
  return out.str();
}

bool StrictlyDominates(const Point& p, const Point& q) {
  return p != q && DominatesEq(p, q);
}

bool Incomparable(const Point& p, const Point& q) {
  return !DominatesEq(p, q) && !DominatesEq(q, p);
}

}  // namespace monoclass
