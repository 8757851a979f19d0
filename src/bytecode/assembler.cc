#include "bytecode/assembler.hh"

#include <map>
#include <sstream>
#include <vector>

#include "bytecode/verifier.hh"
#include "support/panic.hh"
#include "support/strings.hh"

namespace pep::bytecode {

namespace {

using support::parseInt;
using support::splitChar;
using support::splitWhitespace;
using support::trim;

/** One parsed source line with its 1-based line number. */
struct Line
{
    int number;
    std::vector<std::string> tokens;
};

/** A pending label or method-name reference to patch. */
struct Fixup
{
    MethodId method;
    Pc pc;
    enum class Field { A, B, Table } field;
    std::size_t tableIndex;
    std::string symbol;
    int line;
};

std::string
stripComment(const std::string &line)
{
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == ';' || line[i] == '#')
            return line.substr(0, i);
    }
    return line;
}

AssembleResult
error(int line, const std::string &message)
{
    std::ostringstream os;
    os << "line " << line << ": " << message;
    return AssembleResult{false, os.str(), {}};
}

} // namespace

AssembleResult
assemble(const std::string &source)
{
    // Tokenize all lines up front.
    std::vector<Line> lines;
    {
        int number = 0;
        for (const std::string &raw : splitChar(source, '\n')) {
            ++number;
            auto tokens = splitWhitespace(stripComment(raw));
            if (!tokens.empty())
                lines.push_back(Line{number, std::move(tokens)});
        }
    }

    AssembleResult result;
    Program &program = result.program;

    // Pass 1: collect method names so `invoke` can forward-reference.
    std::map<std::string, MethodId> method_ids;
    for (const Line &line : lines) {
        if (line.tokens[0] != ".method")
            continue;
        if (line.tokens.size() < 4)
            return error(line.number, ".method needs name, args, locals");
        const std::string &name = line.tokens[1];
        if (method_ids.count(name))
            return error(line.number, "duplicate method '" + name + "'");
        method_ids[name] = static_cast<MethodId>(program.methods.size());
        Method method;
        method.name = name;
        std::int64_t args = 0;
        std::int64_t locals = 0;
        if (!parseInt(line.tokens[2], args) ||
            !parseInt(line.tokens[3], locals) || args < 0 || locals < 0) {
            return error(line.number, "bad .method counts");
        }
        method.numArgs = static_cast<std::uint32_t>(args);
        method.numLocals = static_cast<std::uint32_t>(locals);
        method.returnsValue =
            line.tokens.size() >= 5 && line.tokens[4] == "returns";
        program.methods.push_back(std::move(method));
    }

    // Pass 2: assemble bodies.
    std::vector<Fixup> fixups;
    Method *current = nullptr;
    MethodId current_id = 0;
    std::map<std::string, Pc> labels; // labels of the current method
    std::vector<std::pair<std::string, int>> pending_label_refs;
    std::string main_name;
    bool saw_main = false;

    auto resolve_labels = [&](int line_number) -> std::string {
        for (Fixup &fixup : fixups) {
            if (fixup.method != current_id)
                continue;
            const auto it = labels.find(fixup.symbol);
            if (it == labels.end()) {
                std::ostringstream os;
                os << "line " << fixup.line << ": undefined label '"
                   << fixup.symbol << "'";
                return os.str();
            }
            Instr &instr = current->code[fixup.pc];
            const auto target = static_cast<std::int32_t>(it->second);
            switch (fixup.field) {
              case Fixup::Field::A:
                instr.a = target;
                break;
              case Fixup::Field::B:
                instr.b = target;
                break;
              case Fixup::Field::Table:
                instr.table[fixup.tableIndex] = target;
                break;
            }
        }
        std::erase_if(fixups, [&](const Fixup &f) {
            return f.method == current_id;
        });
        (void)line_number;
        return {};
    };

    for (const Line &line : lines) {
        const std::string &head = line.tokens[0];

        if (head == ".globals") {
            std::int64_t size = 0;
            if (line.tokens.size() != 2 ||
                !parseInt(line.tokens[1], size) || size < 0) {
                return error(line.number, "bad .globals");
            }
            program.globalSize = static_cast<std::uint32_t>(size);
            continue;
        }
        if (head == ".data") {
            for (std::size_t i = 1; i < line.tokens.size(); ++i) {
                std::int64_t v = 0;
                if (!parseInt(line.tokens[i], v))
                    return error(line.number, "bad .data value");
                program.initialGlobals.push_back(
                    static_cast<std::int32_t>(v));
            }
            continue;
        }
        if (head == ".main") {
            if (line.tokens.size() != 2)
                return error(line.number, ".main needs a method name");
            main_name = line.tokens[1];
            saw_main = true;
            continue;
        }
        if (head == ".method") {
            if (current)
                return error(line.number, "nested .method");
            current_id = method_ids.at(line.tokens[1]);
            current = &program.methods[current_id];
            labels.clear();
            continue;
        }
        if (head == ".end") {
            if (!current)
                return error(line.number, ".end outside method");
            const std::string label_error = resolve_labels(line.number);
            if (!label_error.empty())
                return AssembleResult{false, label_error, {}};
            current = nullptr;
            continue;
        }

        if (!current)
            return error(line.number, "instruction outside .method");

        // Label definition(s): "name:" possibly followed by an
        // instruction on the same line.
        std::size_t first_token = 0;
        while (first_token < line.tokens.size() &&
               line.tokens[first_token].back() == ':') {
            std::string name = line.tokens[first_token];
            name.pop_back();
            if (labels.count(name)) {
                return error(line.number,
                             "duplicate label '" + name + "'");
            }
            labels[name] = static_cast<Pc>(current->code.size());
            ++first_token;
        }
        if (first_token == line.tokens.size())
            continue;

        // Instruction.
        Opcode op;
        if (!opcodeFromMnemonic(line.tokens[first_token], op)) {
            return error(line.number, "unknown mnemonic '" +
                                          line.tokens[first_token] + "'");
        }
        std::vector<std::string> operands(
            line.tokens.begin() +
                static_cast<std::ptrdiff_t>(first_token) + 1,
            line.tokens.end());

        Instr instr;
        instr.op = op;
        const Pc pc = static_cast<Pc>(current->code.size());

        auto label_operand = [&](const std::string &sym,
                                 Fixup::Field field,
                                 std::size_t table_index = 0) {
            fixups.push_back(Fixup{current_id, pc, field, table_index,
                                   sym, line.number});
        };

        auto int_operand = [&](const std::string &text,
                               std::int32_t &out) -> bool {
            std::int64_t v = 0;
            if (!parseInt(text, v))
                return false;
            out = static_cast<std::int32_t>(v);
            return true;
        };

        switch (op) {
          case Opcode::Iconst:
          case Opcode::Iload:
          case Opcode::Istore:
            if (operands.size() != 1 ||
                !int_operand(operands[0], instr.a)) {
                return error(line.number, "expected one int operand");
            }
            break;
          case Opcode::Iinc:
            if (operands.size() != 2 ||
                !int_operand(operands[0], instr.a) ||
                !int_operand(operands[1], instr.b)) {
                return error(line.number, "iinc needs slot and delta");
            }
            break;
          case Opcode::Goto:
            if (operands.size() != 1)
                return error(line.number, "goto needs a label");
            label_operand(operands[0], Fixup::Field::A);
            break;
          case Opcode::Tableswitch: {
            // tableswitch <lo> <defaultLabel> <caseLabel>...
            if (operands.size() < 3)
                return error(line.number,
                             "tableswitch needs lo, default, cases");
            if (!int_operand(operands[0], instr.a))
                return error(line.number, "bad tableswitch lo");
            label_operand(operands[1], Fixup::Field::B);
            instr.table.assign(operands.size() - 2, 0);
            for (std::size_t i = 2; i < operands.size(); ++i) {
                label_operand(operands[i], Fixup::Field::Table, i - 2);
            }
            break;
          }
          case Opcode::Invoke: {
            if (operands.size() != 1)
                return error(line.number, "invoke needs a method name");
            const auto it = method_ids.find(operands[0]);
            if (it == method_ids.end()) {
                return error(line.number, "unknown method '" +
                                              operands[0] + "'");
            }
            instr.a = static_cast<std::int32_t>(it->second);
            break;
          }
          default:
            if (isCondBranch(op)) {
                if (operands.size() != 1)
                    return error(line.number, "branch needs a label");
                label_operand(operands[0], Fixup::Field::A);
            } else if (!operands.empty()) {
                return error(line.number, "unexpected operand");
            }
            break;
        }

        current->code.push_back(std::move(instr));
    }

    if (current)
        return error(lines.back().number, "missing .end");

    if (saw_main) {
        const auto it = method_ids.find(main_name);
        if (it == method_ids.end()) {
            return AssembleResult{
                false, "unknown .main method '" + main_name + "'", {}};
        }
        program.mainMethod = it->second;
    }

    return result;
}

AssembleResult
assembleVerified(const std::string &source)
{
    AssembleResult assembled = assemble(source);
    if (!assembled.ok) {
        assembled.error = "assembly failed: " + assembled.error;
        return assembled;
    }
    const VerifyResult verified = verifyProgram(assembled.program);
    if (!verified.ok) {
        assembled.ok = false;
        assembled.error = "verification failed: " + verified.error;
    }
    return assembled;
}

Program
assembleOrDie(const std::string &source)
{
    AssembleResult assembled = assembleVerified(source);
    if (!assembled.ok)
        support::fatal(assembled.error);
    return std::move(assembled.program);
}

} // namespace pep::bytecode
