#include "error.hh"

namespace davf {

std::string_view
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::BadArgument:       return "bad-argument";
      case ErrorKind::NotFound:          return "not-found";
      case ErrorKind::BadInput:          return "bad-input";
      case ErrorKind::OutOfRange:        return "out-of-range";
      case ErrorKind::Io:                return "io";
      case ErrorKind::Timeout:           return "timeout";
      case ErrorKind::Busy:              return "busy";
      case ErrorKind::ExcessiveFailures: return "excessive-failures";
      case ErrorKind::Internal:          return "internal";
    }
    return "?";
}

} // namespace davf
