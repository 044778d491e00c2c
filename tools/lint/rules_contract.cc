// Contract rules: the SkipIndex surface contract, WorkloadStats merge
// drift, serialization pairing, IndexKind dispatch exhaustiveness, and
// the status-must-use escape hatch audit. These are the rules that make
// "add the eighth skipping structure" a compile-time conversation with
// CI instead of a restore failure in production.

#include <array>
#include <cctype>
#include <set>
#include <utility>

#include "rules.h"

namespace adaskip_analyze {

namespace {

/// skip-index-overrides: every `class X : public SkipIndex` overrides
/// all five contract surfaces. OnAppend keeps the live-append superset
/// contract; Describe keeps introspection; MemoryUsageBytes keeps the
/// cost model honest; SerializeBinary/DeserializeBinary keep crash
/// restore complete.
class SkipIndexOverridesRule : public Rule {
 public:
  std::string_view id() const override { return "skip-index-overrides"; }

  void Check(const SourceFile& file, Reporter& reporter) override {
    for (int i = 0; i + 1 < file.NumCode(); ++i) {
      if (!file.CodeIs(i, TokKind::kIdent, "class")) continue;
      if (file.Code(i + 1).kind != TokKind::kIdent) continue;
      const std::string& name = file.Code(i + 1).text;
      // Scan the class head for `: ... public SkipIndex` before '{'.
      bool subclass = false;
      int open = -1;
      for (int j = i + 2; j < file.NumCode(); ++j) {
        const Token& t = file.Code(j);
        if (t.kind == TokKind::kPunct && (t.text == ";" || t.text == "(")) {
          break;  // Forward declaration or something else entirely.
        }
        if (t.kind == TokKind::kPunct && t.text == "{") {
          open = j;
          break;
        }
        if (t.kind == TokKind::kIdent && t.text == "SkipIndex" && j > i + 2) {
          subclass = true;
        }
      }
      if (!subclass || open < 0) continue;
      const int close = file.MatchBrace(open);
      if (close < 0) continue;
      const int line = file.Code(i).line;
      struct Surface {
        std::string_view name;
        std::string_view why;
      };
      static constexpr std::array<Surface, 5> kSurfaces = {{
          {"OnAppend", "appends would break the superset contract"},
          {"Describe", "introspection surfaces would lose it"},
          {"MemoryUsageBytes", "memory accounting would undercount it"},
          {"SerializeBinary", "checkpoints would silently omit its state"},
          {"DeserializeBinary", "crash restore could not rebuild it"},
      }};
      for (const Surface& surface : kSurfaces) {
        if (!HasOverride(file, open, close, surface.name)) {
          reporter.Report(file, line, id(),
                          "SkipIndex subclass '" + name +
                              "' does not override " +
                              std::string(surface.name) + " — " +
                              std::string(surface.why));
        }
      }
      i = close;
    }
  }

 private:
  /// True if `surface` is declared with `override` inside [open, close].
  static bool HasOverride(const SourceFile& file, int open, int close,
                          std::string_view surface) {
    for (int i = open + 1; i < close; ++i) {
      if (file.Code(i).text != surface || !file.CodeIs(i + 1, "(")) continue;
      const int paren_close = MatchParen(file, i + 1);
      if (paren_close < 0) continue;
      for (int j = paren_close + 1; j < close; ++j) {
        const Token& t = file.Code(j);
        if (t.kind == TokKind::kPunct &&
            (t.text == ";" || t.text == "{" || t.text == "=")) {
          break;
        }
        if (t.kind == TokKind::kIdent && t.text == "override") return true;
      }
    }
    return false;
  }
};

/// exec-stats-sync: for every execution-stats accumulator class
/// (WorkloadStats, ServerStats), each field appears in Record(), and
/// Clear() either resets the whole object or names every field. For
/// ServerStats there is a third synchronized surface: every field's
/// base-name (trailing '_' stripped) must appear in the
/// RecordServerMetrics registration site, so each server stat is also
/// exported as a first-class registry metric on /metrics — a stat that
/// exists only in the Summary() string is invisible to dashboards.
class ExecStatsSyncRule : public Rule {
 public:
  std::string_view id() const override { return "exec-stats-sync"; }

  void Collect(const SourceFile& file) override {
    for (ClassSync& cls : classes_) {
      HarvestFields(file, cls);
      HarvestMethod(file, cls.name, "Record", &cls.record);
      HarvestMethod(file, cls.name, "Clear", &cls.clear);
      if (!cls.export_fn.empty()) {
        HarvestFreeFunction(file, cls.export_fn, &cls.exports);
      }
    }
  }

  void Finish(Reporter& reporter) override {
    for (const ClassSync& cls : classes_) {
      if (cls.fields.empty()) continue;
      if (!cls.record.idents.empty()) {
        for (const std::string& field : cls.fields) {
          if (cls.record.idents.count(field) == 0) {
            reporter.ReportAt(
                cls.record.file, cls.record.line, id(),
                cls.name + " field '" + field + "' is not accumulated in " +
                    cls.name + "::Record — new stats must be added to the "
                    "merge logic");
          }
        }
      }
      if (!cls.clear.idents.empty() && !cls.clear.whole_object_reset) {
        for (const std::string& field : cls.fields) {
          if (cls.clear.idents.count(field) == 0) {
            reporter.ReportAt(
                cls.clear.file, cls.clear.line, id(),
                cls.name + " field '" + field + "' is not reset in " +
                    cls.name + "::Clear — either reset every field or "
                    "assign a fresh " + cls.name + "()");
          }
        }
      }
      if (cls.export_fn.empty()) continue;
      if (cls.exports.idents.empty()) {
        reporter.ReportAt(
            cls.fields_file, cls.fields_line, id(),
            cls.name + " has no " + cls.export_fn + " definition — every " +
                cls.name + " field must be exported as a registry metric at "
                "one registration site the /metrics exposition can render");
        continue;
      }
      for (const std::string& field : cls.fields) {
        std::string base = field;
        if (!base.empty() && base.back() == '_') base.pop_back();
        if (cls.exports.idents.count(base) == 0) {
          reporter.ReportAt(
              cls.exports.file, cls.exports.line, id(),
              cls.name + " field '" + field + "' is not exported in " +
                  cls.export_fn + " — every server stat must surface as a "
                  "first-class registry metric (counter, gauge, or "
                  "histogram), not only in the Summary() string");
        }
      }
    }
  }

 private:
  struct MethodBody {
    std::string file;
    int line = 0;
    std::set<std::string> idents;
    bool whole_object_reset = false;  // Body contains `<ClassName>()`.
  };

  /// One tracked accumulator class and everything harvested about it.
  struct ClassSync {
    ClassSync(std::string class_name, std::string export_function)
        : name(std::move(class_name)), export_fn(std::move(export_function)) {}

    std::string name;
    /// Free function that must export every field as a registry metric
    /// (empty when the class has no exposition contract).
    std::string export_fn;
    std::vector<std::string> fields;
    std::string fields_file;
    int fields_line = 0;
    MethodBody record;
    MethodBody clear;
    MethodBody exports;
  };

  void HarvestFields(const SourceFile& file, ClassSync& cls) {
    for (int i = 0; i + 1 < file.NumCode(); ++i) {
      if (!file.CodeIs(i, TokKind::kIdent, "class") ||
          !file.CodeIs(i + 1, TokKind::kIdent, cls.name)) {
        continue;
      }
      int open = -1;
      for (int j = i + 2; j < file.NumCode(); ++j) {
        const std::string& t = file.Code(j).text;
        if (t == ";") break;
        if (t == "{") {
          open = j;
          break;
        }
      }
      if (open < 0) continue;
      const int close = file.MatchBrace(open);
      if (close < 0) continue;
      cls.fields_file = file.path;
      cls.fields_line = file.Code(i).line;
      // Depth-1 statements without parentheses are field declarations;
      // harvest the trailing-underscore identifiers they declare.
      int depth = 1;
      bool stmt_has_paren = false;
      std::string last_underscore_ident;
      for (int j = open + 1; j < close; ++j) {
        const Token& t = file.Code(j);
        if (t.kind == TokKind::kPunct) {
          if (t.text == "{") ++depth;
          if (t.text == "}") --depth;
          if (t.text == "(") stmt_has_paren = true;
          if (t.text == ";" && depth == 1) {
            if (!stmt_has_paren && !last_underscore_ident.empty()) {
              cls.fields.push_back(last_underscore_ident);
            }
            stmt_has_paren = false;
            last_underscore_ident.clear();
          }
        } else if (t.kind == TokKind::kIdent && depth == 1 &&
                   t.text.size() > 1 && t.text.back() == '_' &&
                   last_underscore_ident.empty()) {
          last_underscore_ident = t.text;
        }
      }
      return;
    }
  }

  void HarvestMethod(const SourceFile& file, const std::string& cls_name,
                     std::string_view method, MethodBody* out) {
    for (int i = 0; i + 3 < file.NumCode(); ++i) {
      if (!file.CodeIs(i, TokKind::kIdent, cls_name) ||
          !file.CodeIs(i + 1, "::") || file.Code(i + 2).text != method ||
          !file.CodeIs(i + 3, "(")) {
        continue;
      }
      int open = -1;
      for (int j = i + 3; j < file.NumCode(); ++j) {
        if (file.CodeIs(j, TokKind::kPunct, "{")) {
          open = j;
          break;
        }
      }
      if (open < 0) return;
      const int close = file.MatchBrace(open);
      if (close < 0) return;
      out->file = file.path;
      out->line = file.Code(i).line;
      for (int j = open + 1; j < close; ++j) {
        const Token& t = file.Code(j);
        if (t.kind == TokKind::kIdent) {
          out->idents.insert(t.text);
          if (t.text == cls_name && file.CodeIs(j + 1, "(")) {
            out->whole_object_reset = true;
          }
        }
      }
      return;
    }
  }

  /// Harvests the definition of free function `fn` (parameters included,
  /// so a field exported straight from a parameter still counts). Call
  /// sites and declarations — nothing but identifiers may sit between
  /// the parameter list's ')' and the body's '{' — are skipped.
  void HarvestFreeFunction(const SourceFile& file, const std::string& fn,
                           MethodBody* out) {
    for (int i = 0; i < file.NumCode(); ++i) {
      if (file.Code(i).text != fn || !file.CodeIs(i + 1, "(")) continue;
      const int paren_close = MatchParen(file, i + 1);
      if (paren_close < 0) continue;
      int open = -1;
      for (int j = paren_close + 1; j < file.NumCode(); ++j) {
        const Token& t = file.Code(j);
        if (t.kind == TokKind::kPunct && t.text == "{") {
          open = j;
          break;
        }
        if (t.kind != TokKind::kIdent) break;
      }
      if (open < 0) continue;
      const int close = file.MatchBrace(open);
      if (close < 0) continue;
      out->file = file.path;
      out->line = file.Code(i).line;
      for (int j = i + 2; j < close; ++j) {
        const Token& t = file.Code(j);
        if (t.kind == TokKind::kIdent) out->idents.insert(t.text);
      }
      return;
    }
  }

  std::vector<ClassSync> classes_ = {{"WorkloadStats", ""},
                                     {"ServerStats", "RecordServerMetrics"}};
};

/// serialize-binary-pair: any class/struct declaring SerializeBinary
/// also declares DeserializeBinary, and vice versa.
class SerializeBinaryPairRule : public Rule {
 public:
  std::string_view id() const override { return "serialize-binary-pair"; }

  void Check(const SourceFile& file, Reporter& reporter) override {
    for (int i = 0; i + 1 < file.NumCode(); ++i) {
      const Token& kw = file.Code(i);
      if (kw.kind != TokKind::kIdent ||
          (kw.text != "class" && kw.text != "struct")) {
        continue;
      }
      if (file.CodeIs(i - 1, TokKind::kIdent, "enum")) continue;
      if (file.Code(i + 1).kind != TokKind::kIdent) continue;
      const std::string& name = file.Code(i + 1).text;
      int open = -1;
      for (int j = i + 2; j < file.NumCode(); ++j) {
        const std::string& t = file.Code(j).text;
        if (t == ";" || t == "(") break;  // Fwd decl / not a class head.
        if (t == "{") {
          open = j;
          break;
        }
      }
      if (open < 0) continue;
      const int close = file.MatchBrace(open);
      if (close < 0) continue;
      bool has_ser = false;
      bool has_deser = false;
      for (int j = open + 1; j < close; ++j) {
        const Token& t = file.Code(j);
        if (t.kind != TokKind::kIdent) continue;
        if (t.text == "SerializeBinary") has_ser = true;
        if (t.text == "DeserializeBinary") has_deser = true;
      }
      if (has_ser != has_deser) {
        reporter.Report(
            file, kw.line, id(),
            "'" + name + "' declares " +
                (has_ser ? std::string("SerializeBinary without "
                                       "DeserializeBinary — it writes "
                                       "snapshots nothing can read back")
                         : std::string("DeserializeBinary without "
                                       "SerializeBinary — nothing can "
                                       "produce the bytes it expects")) +
                "; persistence round-trips require both halves");
      }
      // Do not skip the body: nested classes are scanned by the outer
      // loop exactly like the stripped-lexical predecessor did.
    }
  }
};

/// index-kind-exhaustive: harvest `enum class IndexKind` and verify
/// every enumerator appears in every kind-dispatch definition
/// (IndexKindToString, each MakeSkipIndex overload, and
/// ValidateIndexOptions — the serde/factory/validation registry). The
/// five per-kind behavioral surfaces (OnAppend, Describe,
/// MemoryUsageBytes, SerializeBinary, DeserializeBinary) are virtuals,
/// so their per-kind coverage is enforced by skip-index-overrides.
class IndexKindExhaustiveRule : public Rule {
 public:
  std::string_view id() const override { return "index-kind-exhaustive"; }

  void Collect(const SourceFile& file) override {
    if (!PathContains(file.path, "src/")) return;
    HarvestEnum(file);
    for (std::string_view site : kSites) HarvestSite(file, site);
  }

  void Finish(Reporter& reporter) override {
    if (enumerators_.empty()) return;
    for (std::string_view site : kSites) {
      bool found = false;
      for (const SiteDef& def : defs_) {
        if (def.name == site) found = true;
      }
      if (!found) {
        reporter.ReportAt(enum_file_, enum_line_, id(),
                          "no definition of IndexKind dispatch site '" +
                              std::string(site) +
                              "' was found — every kind-dispatch surface "
                              "must exist and be scanned");
      }
    }
    for (const SiteDef& def : defs_) {
      for (const std::string& enumerator : enumerators_) {
        if (def.idents.count(enumerator) == 0) {
          reporter.ReportAt(
              def.file, def.line, id(),
              "IndexKind::" + enumerator + " is not handled in '" + def.name +
                  "' — every enumerator must appear in every dispatch site "
                  "(adding a kind with a missing surface fails here, not in "
                  "a restore)");
        }
      }
    }
  }

 private:
  static constexpr std::array<std::string_view, 3> kSites = {
      "IndexKindToString", "MakeSkipIndex", "ValidateIndexOptions"};

  struct SiteDef {
    std::string name;
    std::string file;
    int line = 0;
    std::set<std::string> idents;
  };

  void HarvestEnum(const SourceFile& file) {
    for (int i = 0; i + 2 < file.NumCode(); ++i) {
      if (!file.CodeIs(i, TokKind::kIdent, "enum") ||
          !file.CodeIs(i + 1, TokKind::kIdent, "class") ||
          !file.CodeIs(i + 2, TokKind::kIdent, "IndexKind")) {
        continue;
      }
      int open = -1;
      for (int j = i + 3; j < file.NumCode(); ++j) {
        const std::string& t = file.Code(j).text;
        if (t == ";") break;  // Opaque-enum declaration.
        if (t == "{") {
          open = j;
          break;
        }
      }
      if (open < 0) continue;
      const int close = file.MatchBrace(open);
      if (close < 0) continue;
      enum_file_ = file.path;
      enum_line_ = file.Code(i).line;
      // Enumerator, optionally `= value`, separated by commas.
      int j = open + 1;
      while (j < close) {
        if (file.Code(j).kind == TokKind::kIdent) {
          enumerators_.push_back(file.Code(j).text);
        }
        while (j < close && file.Code(j).text != ",") ++j;
        ++j;
      }
      return;
    }
  }

  void HarvestSite(const SourceFile& file, std::string_view site) {
    for (int i = 0; i < file.NumCode(); ++i) {
      if (file.Code(i).text != site || !file.CodeIs(i + 1, "(")) continue;
      const int paren_close = MatchParen(file, i + 1);
      if (paren_close < 0) continue;
      // A definition: only identifiers (const, noexcept, ...) between
      // the parameter list and the '{'. Anything else is a call site or
      // a declaration.
      int open = -1;
      for (int j = paren_close + 1; j < file.NumCode(); ++j) {
        const Token& t = file.Code(j);
        if (t.kind == TokKind::kPunct && t.text == "{") {
          open = j;
          break;
        }
        if (t.kind != TokKind::kIdent) break;
      }
      if (open < 0) continue;
      const int close = file.MatchBrace(open);
      if (close < 0) continue;
      SiteDef def;
      def.name = std::string(site);
      def.file = file.path;
      def.line = file.Code(i).line;
      for (int j = open + 1; j < close; ++j) {
        if (file.Code(j).kind == TokKind::kIdent) {
          def.idents.insert(file.Code(j).text);
        }
      }
      defs_.push_back(std::move(def));
      i = close;
    }
  }

  std::vector<std::string> enumerators_;
  std::string enum_file_;
  int enum_line_ = 0;
  std::vector<SiteDef> defs_;
};

/// status-must-use: Status and Result are [[nodiscard]], but two
/// escapes silence the compiler inconsistently across GCC/Clang: the
/// `(void)`-cast and the comma operator. Harvest every function that
/// returns Status/Result (library headers and sources), then flag those
/// escapes at call sites in library and example code.
class StatusMustUseRule : public Rule {
 public:
  std::string_view id() const override { return "status-must-use"; }

  void Collect(const SourceFile& file) override {
    if (!PathContains(file.path, "src/")) return;
    for (int i = 0; i < file.NumCode(); ++i) {
      const Token& t = file.Code(i);
      if (t.kind != TokKind::kIdent) continue;
      int name_idx = -1;
      if (t.text == "Status") {
        name_idx = i + 1;
      } else if (t.text == "Result" && file.CodeIs(i + 1, "<")) {
        // Skip the template argument list (tracking nested <>, with
        // `>>` closing two).
        int depth = 0;
        int j = i + 1;
        for (; j < file.NumCode(); ++j) {
          const std::string& p = file.Code(j).text;
          if (p == "<") ++depth;
          if (p == ">") --depth;
          if (p == ">>") depth -= 2;
          if (depth <= 0 && j > i + 1) break;
          if (p == ";" || p == "{") break;  // Malformed; bail.
        }
        name_idx = j + 1;
      } else {
        continue;
      }
      const Token& name = file.Code(name_idx);
      if (name.kind != TokKind::kIdent ||
          !file.CodeIs(name_idx + 1, TokKind::kPunct, "(")) {
        continue;
      }
      // PascalCase filter: repo functions are PascalCase; this skips
      // local-variable declarations like `Status s(...)`.
      if (std::isupper(static_cast<unsigned char>(name.text[0])) == 0) {
        continue;
      }
      returns_status_.insert(name.text);
    }
  }

  void Check(const SourceFile& file, Reporter& reporter) override {
    if (!PathContains(file.path, "src/") &&
        !PathContains(file.path, "examples/")) {
      return;
    }
    for (int i = 0; i < file.NumCode(); ++i) {
      CheckVoidCast(file, i, reporter);
      CheckCommaEscape(file, i, reporter);
    }
  }

 private:
  /// `(void)expr` and `static_cast<void>(expr)` where expr's first call
  /// is to a Status/Result-returning function.
  void CheckVoidCast(const SourceFile& file, int i, Reporter& reporter) {
    int expr_start = -1;
    if (file.CodeIs(i, TokKind::kPunct, "(") &&
        file.CodeIs(i + 1, TokKind::kIdent, "void") &&
        file.CodeIs(i + 2, TokKind::kPunct, ")")) {
      expr_start = i + 3;
    } else if (file.CodeIs(i, TokKind::kIdent, "static_cast") &&
               file.CodeIs(i + 1, "<") &&
               file.CodeIs(i + 2, TokKind::kIdent, "void") &&
               file.CodeIs(i + 3, ">") && file.CodeIs(i + 4, "(")) {
      expr_start = i + 5;
    }
    if (expr_start < 0) return;
    // Walk the member-access chain to the first call.
    std::string callee;
    for (int j = expr_start; j < file.NumCode(); ++j) {
      const Token& t = file.Code(j);
      if (t.kind == TokKind::kIdent) {
        callee = t.text;
        continue;
      }
      if (t.kind == TokKind::kPunct &&
          (t.text == "::" || t.text == "." || t.text == "->" ||
           t.text == "*")) {
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == "(" && !callee.empty()) {
        if (returns_status_.count(callee) != 0) {
          reporter.Report(
              file, file.Code(i).line, id(),
              "'(void)' discards the Status/Result returned by '" + callee +
                  "' — handle the error, or suppress with an explicit "
                  "rationale (adaskip-analyze: allow(status-must-use))");
        }
        return;
      }
      return;  // Not a plain call chain.
    }
  }

  /// `Foo(...), rest` at statement level (or directly inside an
  /// if/while/for/switch condition): the comma operator discards the
  /// call's value and [[nodiscard]] cannot see through it.
  void CheckCommaEscape(const SourceFile& file, int i, Reporter& reporter) {
    if (!IdentThenParen(file, i)) return;
    const std::string& callee = file.Code(i).text;
    if (returns_status_.count(callee) == 0) return;
    const Token& prev = file.Code(i - 1);
    bool stmt_start = i == 0;
    if (prev.kind == TokKind::kPunct &&
        (prev.text == ";" || prev.text == "{" || prev.text == "}" ||
         prev.text == ":")) {
      stmt_start = true;
    }
    if (prev.kind == TokKind::kIdent &&
        (prev.text == "else" || prev.text == "do")) {
      stmt_start = true;
    }
    bool in_condition = false;
    if (prev.kind == TokKind::kPunct && prev.text == "(") {
      const Token& kw = file.Code(i - 2);
      in_condition = kw.kind == TokKind::kIdent &&
                     (kw.text == "if" || kw.text == "while" ||
                      kw.text == "for" || kw.text == "switch");
    }
    if (!stmt_start && !in_condition) return;
    const int close = MatchParen(file, i + 1);
    if (close < 0 || !file.CodeIs(close + 1, TokKind::kPunct, ",")) return;
    reporter.Report(
        file, file.Code(i).line, id(),
        "comma operator discards the Status/Result returned by '" + callee +
            "' — [[nodiscard]] cannot see through this escape; handle the "
            "error");
  }

  std::set<std::string> returns_status_;
};

}  // namespace

void AddContractRules(std::vector<std::unique_ptr<Rule>>* rules) {
  rules->push_back(std::make_unique<SkipIndexOverridesRule>());
  rules->push_back(std::make_unique<ExecStatsSyncRule>());
  rules->push_back(std::make_unique<SerializeBinaryPairRule>());
  rules->push_back(std::make_unique<IndexKindExhaustiveRule>());
  rules->push_back(std::make_unique<StatusMustUseRule>());
}

}  // namespace adaskip_analyze
