/**
 * @file
 * gtest helper over dsm::parseJson for validating the JSON the
 * simulator emits (registry dumps, bench reports, Chrome traces).
 */

#ifndef DSM_TESTS_JSON_PARSE_HH
#define DSM_TESTS_JSON_PARSE_HH

#include <gtest/gtest.h>

#include <string>

#include "sim/json.hh"

namespace dsmtest {

/** Parse or ADD_FAILURE with the parser's diagnostic. */
inline bool
parseJsonOrFail(const std::string &text, dsm::JsonValue *out)
{
    std::string err;
    bool ok = dsm::parseJson(text, out, &err);
    EXPECT_TRUE(ok) << "JSON parse error: " << err << "\ninput:\n"
                    << text.substr(0, 2000);
    return ok;
}

} // namespace dsmtest

#endif // DSM_TESTS_JSON_PARSE_HH
