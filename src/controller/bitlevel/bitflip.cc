/**
 * @file
 * Reducer factory and technique names.
 */

#include "controller/bitlevel/bitflip.hh"

#include "common/logging.hh"
#include "controller/bitlevel/dcw.hh"
#include "controller/bitlevel/deuce.hh"
#include "controller/bitlevel/fnw.hh"
#include "controller/bitlevel/secret.hh"

namespace dewrite {

std::string
bitTechniqueName(BitTechnique technique)
{
    switch (technique) {
      case BitTechnique::None:
        return "Full";
      case BitTechnique::Dcw:
        return "DCW";
      case BitTechnique::Fnw:
        return "FNW";
      case BitTechnique::Deuce:
        return "DEUCE";
      case BitTechnique::Secret:
        return "SECRET";
    }
    panic("bad bit technique");
}

std::unique_ptr<BitLevelReducer>
makeReducer(BitTechnique technique, const CounterModeEngine &cme)
{
    switch (technique) {
      case BitTechnique::None:
        return std::make_unique<NoneReducer>();
      case BitTechnique::Dcw:
        return std::make_unique<DcwReducer>(cme);
      case BitTechnique::Fnw:
        return std::make_unique<FnwReducer>(cme);
      case BitTechnique::Deuce:
        return std::make_unique<DeuceReducer>(cme);
      case BitTechnique::Secret:
        return std::make_unique<SecretReducer>(cme);
    }
    panic("bad bit technique");
}

} // namespace dewrite
