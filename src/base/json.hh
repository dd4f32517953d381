/**
 * @file
 * Minimal JSON value type used by the experiment harness for golden
 * fixtures and run manifests. Supports the subset the harness needs:
 * null/bool/number/string/array/object, deterministic (sorted-key)
 * serialization, and a strict recursive-descent parser.
 */

#ifndef MCLOCK_BASE_JSON_HH_
#define MCLOCK_BASE_JSON_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mclock {

/** A JSON document node. Numbers are stored as double. */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Json>;
    using Object = std::map<std::string, Json>;

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d) {}
    Json(int i) : type_(Type::Number), num_(i) {}
    Json(std::uint64_t u)
        : type_(Type::Number), num_(static_cast<double>(u)) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
    Json(Array a) : type_(Type::Array), arr_(std::move(a)) {}
    Json(Object o) : type_(Type::Object), obj_(std::move(o)) {}

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }

    bool asBool() const { return bool_; }
    double asNumber() const { return num_; }
    const std::string &asString() const { return str_; }
    const Array &asArray() const { return arr_; }
    const Object &asObject() const { return obj_; }
    Array &array() { return arr_; }
    Object &object() { return obj_; }

    /** Object member access; returns a shared null for missing keys. */
    const Json &operator[](const std::string &key) const;

    bool contains(const std::string &key) const
    {
        return type_ == Type::Object && obj_.count(key) > 0;
    }

    /** Set an object member (converts this node to an object). */
    void set(const std::string &key, Json value);

    /** Append to an array (converts this node to an array). */
    void push(Json value);

    /**
     * Serialize. Keys are emitted in sorted order and doubles with
     * enough digits to round-trip, so equal values produce equal text.
     * @param indent spaces per nesting level; 0 = compact one-line
     */
    std::string dump(int indent = 0) const;

    /**
     * Parse a document.
     * @param[out] err set to a message on failure (when non-null)
     * @return the parsed value, or a null value on failure
     */
    static Json parse(const std::string &text, std::string *err = nullptr);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;
    static void dumpString(std::string &out, const std::string &s);

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

}  // namespace mclock

#endif  // MCLOCK_BASE_JSON_HH_
