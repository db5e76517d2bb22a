/**
 * @file
 * Minimal streaming JSON writer used by the observability exporters
 * (Chrome trace serialisation, stats JSON). Emits syntactically valid
 * JSON with automatic comma/indent management; no DOM, no external
 * dependency.
 */

#ifndef UNISTC_OBS_JSON_WRITER_HH
#define UNISTC_OBS_JSON_WRITER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace unistc
{

/**
 * Stack-based JSON emitter. Usage:
 *
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.key("cycles"); w.value(std::uint64_t{42});
 *   w.key("models"); w.beginArray(); w.value("Uni-STC"); w.endArray();
 *   w.endObject();
 *
 * Double policy (audited for bit-exact round-trips):
 *
 *  - Finite values emit the SHORTEST decimal form that strtod()
 *    parses back to the identical bit pattern, falling back to
 *    max_digits10 (17) significant digits. -0.0 keeps its sign.
 *  - Non-finite values emit the quoted strings "nan", "inf" and
 *    "-inf" — JSON has no Infinity/NaN literals, and the previous
 *    null encoding conflated all three irrecoverably. This mirrors
 *    the Histogram convention of an explicit "nan" record instead
 *    of silently losing the information (docs/OBSERVABILITY.md).
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level; 0 = compact one-line. */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; must be inside an object. */
    void key(const std::string &k);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v);
    void value(bool v);
    void null();

    /** Escape a string for embedding in a JSON document (no quotes). */
    static std::string escape(const std::string &s);

    /**
     * The exact token value(double) emits (sans quoting for the
     * non-finite strings): shortest round-trip decimal for finite
     * input, "nan" / "inf" / "-inf" otherwise. Exposed so tests and
     * readers share one formatting contract.
     */
    static std::string formatDouble(double v);

  private:
    enum class Scope { Object, Array };

    /** Comma/newline/indent bookkeeping before a value or key. */
    void preValue();
    void preKey();
    void newline();

    std::ostream &os_;
    int indent_;
    std::vector<Scope> stack_;
    bool firstInScope_ = true;
    bool afterKey_ = false;
};

} // namespace unistc

#endif // UNISTC_OBS_JSON_WRITER_HH
