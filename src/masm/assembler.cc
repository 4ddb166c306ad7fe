#include "assembler.hh"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "support/logging.hh"

namespace ddsc
{

namespace
{

/** Signed immediate range of the ISA (SPARC-like simm13). */
constexpr std::int64_t kImmMin = -4096;
constexpr std::int64_t kImmMax = 4095;
/** sethi immediate range: 20 bits shifted left by 12. */
constexpr std::int64_t kSethiMax = (std::int64_t{1} << 20) - 1;

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
        c == '.';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '.';
}

/** Parse "r5", "sp", "lr", "zero"; returns -1 when not a register. */
int
parseReg(std::string_view tok)
{
    if (tok == "zero")
        return kRegZero;
    if (tok == "sp")
        return kRegSp;
    if (tok == "lr")
        return kRegLink;
    if (tok.size() < 2 || tok.size() > 3 || tok[0] != 'r')
        return -1;
    unsigned value = 0;
    for (char c : tok.substr(1)) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return -1;
        value = value * 10 + static_cast<unsigned>(c - '0');
    }
    return value < kNumRegs ? static_cast<int>(value) : -1;
}

/** Parse a decimal or 0x-hex integer, with optional leading '-'. */
std::optional<std::int64_t>
parseInt(std::string_view tok)
{
    if (tok.empty())
        return std::nullopt;
    bool negative = false;
    if (tok.front() == '-') {
        negative = true;
        tok.remove_prefix(1);
        if (tok.empty())
            return std::nullopt;
    }
    int base = 10;
    if (tok.size() > 2 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X')) {
        base = 16;
        tok.remove_prefix(2);
    }
    std::int64_t value = 0;
    for (char c : tok) {
        int digit;
        if (std::isdigit(static_cast<unsigned char>(c)))
            digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            return std::nullopt;
        value = value * base + digit;
    }
    return negative ? -value : value;
}

/** Split a statement's operand field on top-level commas. */
std::vector<std::string_view>
splitOperands(std::string_view s)
{
    std::vector<std::string_view> out;
    std::size_t depth = 0, start = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '[')
            ++depth;
        else if (s[i] == ']' && depth > 0)
            --depth;
        else if (s[i] == ',' && depth == 0) {
            out.push_back(trim(s.substr(start, i - start)));
            start = i + 1;
        }
    }
    const std::string_view last = trim(s.substr(start));
    if (!last.empty() || !out.empty())
        out.push_back(last);
    return out;
}

/** Conditional-branch mnemonics. */
const std::map<std::string_view, Cond> kBranchMnemonics = {
    {"beq", Cond::EQ},   {"bne", Cond::NE},
    {"blt", Cond::LT},   {"ble", Cond::LE},
    {"bgt", Cond::GT},   {"bge", Cond::GE},
    {"bltu", Cond::LTU}, {"bleu", Cond::LEU},
    {"bgtu", Cond::GTU}, {"bgeu", Cond::GEU},
    {"bneg", Cond::NEG}, {"bpos", Cond::POS},
};

/** Three-operand ALU mnemonics. */
const std::map<std::string_view, Opcode> kAluMnemonics = {
    {"add", Opcode::ADD},     {"sub", Opcode::SUB},
    {"addcc", Opcode::ADDCC}, {"subcc", Opcode::SUBCC},
    {"and", Opcode::AND},     {"or", Opcode::OR},
    {"xor", Opcode::XOR},     {"andn", Opcode::ANDN},
    {"andcc", Opcode::ANDCC}, {"orcc", Opcode::ORCC},
    {"xorcc", Opcode::XORCC},
    {"sll", Opcode::SLL},     {"srl", Opcode::SRL},
    {"sra", Opcode::SRA},
    {"mul", Opcode::MUL},     {"div", Opcode::DIV},
};

/** Memory-access mnemonics. */
const std::map<std::string_view, Opcode> kMemMnemonics = {
    {"ldw", Opcode::LDW}, {"ldb", Opcode::LDB},
    {"stw", Opcode::STW}, {"stb", Opcode::STB},
};

enum class StmtKind
{
    Instr,      // one source instruction (may expand to 1-2 encoded ones)
    Word,
    Byte,
    Space,
    Align,
    Equ,        // .equ NAME, value: a named constant
    SegText,
    SegData,
    Empty,
};

struct Statement
{
    StmtKind kind = StmtKind::Empty;
    int line = 0;
    std::string label;                  // optional leading label
    std::string mnemonic;
    std::vector<std::string> operands;  // raw operand text
    unsigned encodedSize = 0;           // instructions after expansion
};

/**
 * Assembler working state for one source unit.
 */
class Assembler
{
  public:
    explicit Assembler(std::string_view source) : source_(source) {}

    AsmResult
    run()
    {
        parseLines();
        if (result_.errors.empty())
            layout();
        if (result_.errors.empty())
            encode();
        if (result_.errors.empty())
            resolveEntry();
        return std::move(result_);
    }

  private:
    void
    error(int line, const std::string &message)
    {
        result_.errors.push_back({line, message});
    }

    // ---- pass 0: split into statements -------------------------------

    void
    parseLines()
    {
        std::size_t pos = 0;
        int line_no = 0;
        while (pos <= source_.size()) {
            const std::size_t nl = source_.find('\n', pos);
            std::string_view line = source_.substr(
                pos, nl == std::string_view::npos ? std::string_view::npos
                                                  : nl - pos);
            pos = nl == std::string_view::npos ? source_.size() + 1 : nl + 1;
            ++line_no;
            parseLine(line, line_no);
        }
    }

    void
    parseLine(std::string_view line, int line_no)
    {
        // Strip comments.
        const std::size_t semi = line.find_first_of(";#");
        if (semi != std::string_view::npos)
            line = line.substr(0, semi);
        line = trim(line);
        if (line.empty())
            return;

        Statement stmt;
        stmt.line = line_no;

        // Leading label?
        if (isIdentStart(line.front())) {
            std::size_t i = 1;
            while (i < line.size() && isIdentChar(line[i]))
                ++i;
            if (i < line.size() && line[i] == ':') {
                stmt.label = std::string(line.substr(0, i));
                line = trim(line.substr(i + 1));
            }
        }

        if (line.empty()) {
            stmt.kind = StmtKind::Empty;
            statements_.push_back(std::move(stmt));
            return;
        }

        // Mnemonic / directive.
        std::size_t i = 0;
        while (i < line.size() &&
               !std::isspace(static_cast<unsigned char>(line[i]))) {
            ++i;
        }
        stmt.mnemonic = std::string(line.substr(0, i));
        const std::string_view rest = trim(line.substr(i));
        for (std::string_view opnd : splitOperands(rest))
            stmt.operands.emplace_back(opnd);

        if (stmt.mnemonic == ".text") {
            stmt.kind = StmtKind::SegText;
        } else if (stmt.mnemonic == ".data") {
            stmt.kind = StmtKind::SegData;
        } else if (stmt.mnemonic == ".word") {
            stmt.kind = StmtKind::Word;
        } else if (stmt.mnemonic == ".byte") {
            stmt.kind = StmtKind::Byte;
        } else if (stmt.mnemonic == ".space") {
            stmt.kind = StmtKind::Space;
        } else if (stmt.mnemonic == ".align") {
            stmt.kind = StmtKind::Align;
        } else if (stmt.mnemonic == ".equ") {
            stmt.kind = StmtKind::Equ;
        } else if (stmt.mnemonic[0] == '.') {
            error(line_no, "unknown directive '" + stmt.mnemonic + "'");
            return;
        } else {
            stmt.kind = StmtKind::Instr;
            stmt.encodedSize = expansionSize(stmt);
        }
        statements_.push_back(std::move(stmt));
    }

    /** Number of encoded instructions a source instruction expands to. */
    unsigned
    expansionSize(const Statement &stmt)
    {
        if (stmt.mnemonic == "la")
            return 2;
        if (stmt.mnemonic == "li" && stmt.operands.size() == 2) {
            const auto value = parseInt(stmt.operands[1]);
            if (!value)
                return 1;   // an error reported during encode()
            return liSize(*value);
        }
        return 1;
    }

    static unsigned
    liSize(std::int64_t value)
    {
        if (value >= kImmMin && value <= kImmMax)
            return 1;
        const auto u = static_cast<std::uint32_t>(value);
        return (u & 0xfff) != 0 ? 2 : 1;
    }

    // ---- pass 1: addresses and symbols --------------------------------

    void
    layout()
    {
        bool in_text = true;
        std::size_t text_index = 0;
        std::size_t data_offset = 0;

        for (Statement &stmt : statements_) {
            // .word data is 4-byte aligned; pad before binding any label
            // on the same line so the label names the padded location.
            if (stmt.kind == StmtKind::Word && !in_text)
                data_offset = (data_offset + 3) & ~std::size_t{3};
            if (!stmt.label.empty()) {
                const std::uint64_t value = in_text
                    ? Program::pcOf(text_index)
                    : kDataBase + data_offset;
                if (!symbols_.emplace(stmt.label, value).second)
                    error(stmt.line, "duplicate label '" + stmt.label + "'");
            }
            switch (stmt.kind) {
              case StmtKind::SegText:
                in_text = true;
                break;
              case StmtKind::SegData:
                in_text = false;
                break;
              case StmtKind::Instr:
                if (!in_text) {
                    error(stmt.line, "instruction in .data segment");
                    break;
                }
                text_index += stmt.encodedSize;
                break;
              case StmtKind::Word:
                data_offset += 4 * stmt.operands.size();
                break;
              case StmtKind::Byte:
                data_offset += stmt.operands.size();
                break;
              case StmtKind::Space: {
                const auto n = stmt.operands.size() == 1
                    ? parseInt(stmt.operands[0]) : std::nullopt;
                if (!n || *n < 0)
                    error(stmt.line, ".space needs a non-negative size");
                else
                    data_offset += static_cast<std::size_t>(*n);
                break;
              }
              case StmtKind::Align: {
                const auto n = stmt.operands.size() == 1
                    ? parseInt(stmt.operands[0]) : std::nullopt;
                if (!n || *n <= 0 || (*n & (*n - 1)) != 0) {
                    error(stmt.line, ".align needs a power-of-two size");
                } else {
                    const auto mask = static_cast<std::size_t>(*n) - 1;
                    data_offset = (data_offset + mask) & ~mask;
                }
                break;
              }
              case StmtKind::Equ: {
                if (stmt.operands.size() != 2) {
                    error(stmt.line, ".equ expects NAME, value");
                    break;
                }
                const auto value = parseInt(stmt.operands[1]);
                if (!value) {
                    error(stmt.line, ".equ value must be numeric");
                    break;
                }
                if (!symbols_.emplace(stmt.operands[0],
                                      static_cast<std::uint64_t>(
                                          *value)).second) {
                    error(stmt.line, "duplicate symbol '" +
                          stmt.operands[0] + "'");
                }
                break;
              }
              case StmtKind::Empty:
                break;
            }
        }
    }

    // ---- pass 2: encoding ---------------------------------------------

    void
    encode()
    {
        bool in_text = true;
        for (const Statement &stmt : statements_) {
            switch (stmt.kind) {
              case StmtKind::SegText:
                in_text = true;
                break;
              case StmtKind::SegData:
                in_text = false;
                break;
              case StmtKind::Instr:
                encodeInstr(stmt);
                break;
              case StmtKind::Word:
                dataAlign(4);
                for (const std::string &tok : stmt.operands)
                    emitWord(stmt, tok);
                break;
              case StmtKind::Byte:
                for (const std::string &tok : stmt.operands)
                    emitByte(stmt, tok);
                break;
              case StmtKind::Space: {
                const auto n = stmt.operands.size() == 1
                    ? parseInt(stmt.operands[0]) : std::nullopt;
                if (n && *n >= 0)
                    result_.program.data.resize(
                        result_.program.data.size() +
                        static_cast<std::size_t>(*n));
                break;
              }
              case StmtKind::Align: {
                const auto n = stmt.operands.size() == 1
                    ? parseInt(stmt.operands[0]) : std::nullopt;
                if (n && *n > 0 && (*n & (*n - 1)) == 0)
                    dataAlign(static_cast<std::size_t>(*n));
                break;
              }
              case StmtKind::Equ:     // handled entirely in layout()
              case StmtKind::Empty:
                break;
            }
            (void)in_text;
        }
    }

    void
    dataAlign(std::size_t boundary)
    {
        auto &data = result_.program.data;
        while (data.size() % boundary != 0)
            data.push_back(0);
    }

    void
    emitWord(const Statement &stmt, const std::string &tok)
    {
        std::uint32_t value = 0;
        if (const auto num = parseInt(tok)) {
            value = static_cast<std::uint32_t>(*num);
        } else if (const auto sym = lookup(tok)) {
            value = static_cast<std::uint32_t>(*sym);
        } else {
            error(stmt.line, "bad .word operand '" + tok + "'");
            return;
        }
        auto &data = result_.program.data;
        data.push_back(static_cast<std::uint8_t>(value));
        data.push_back(static_cast<std::uint8_t>(value >> 8));
        data.push_back(static_cast<std::uint8_t>(value >> 16));
        data.push_back(static_cast<std::uint8_t>(value >> 24));
    }

    void
    emitByte(const Statement &stmt, const std::string &tok)
    {
        const auto num = parseInt(tok);
        if (!num) {
            error(stmt.line, "bad .byte operand '" + tok + "'");
            return;
        }
        result_.program.data.push_back(static_cast<std::uint8_t>(*num));
    }

    std::optional<std::uint64_t>
    lookup(const std::string &name) const
    {
        const auto it = symbols_.find(name);
        if (it == symbols_.end())
            return std::nullopt;
        return it->second;
    }

    void
    push(Instruction inst)
    {
        result_.program.text.push_back(inst);
    }

    /** Parse a source-2 operand: register or simm13 immediate. */
    bool
    parseSrc2(const Statement &stmt, const std::string &tok,
              Instruction &inst)
    {
        if (const int reg = parseReg(tok); reg >= 0) {
            inst.useImm = false;
            inst.rs2 = static_cast<std::uint8_t>(reg);
            return true;
        }
        std::optional<std::int64_t> imm = parseInt(tok);
        if (!imm) {
            // Fall back to .equ constants.
            if (const auto sym = lookup(tok))
                imm = static_cast<std::int64_t>(*sym);
        }
        if (imm) {
            if (*imm < kImmMin || *imm > kImmMax) {
                error(stmt.line, "immediate " + tok +
                      " out of simm13 range (use li)");
                return false;
            }
            inst.useImm = true;
            inst.imm = static_cast<std::int32_t>(*imm);
            return true;
        }
        error(stmt.line, "bad operand '" + tok + "'");
        return false;
    }

    /** Parse "[rN]", "[rN + rM]", "[rN + imm]", "[rN - imm]". */
    bool
    parseMem(const Statement &stmt, const std::string &tok,
             Instruction &inst)
    {
        std::string_view s = tok;
        if (s.size() < 2 || s.front() != '[' || s.back() != ']') {
            error(stmt.line, "bad memory operand '" + tok + "'");
            return false;
        }
        s = trim(s.substr(1, s.size() - 2));
        // Find a top-level + or - separating base and offset.
        std::size_t split = std::string_view::npos;
        char sign = '+';
        for (std::size_t i = 1; i < s.size(); ++i) {
            if (s[i] == '+' || s[i] == '-') {
                split = i;
                sign = s[i];
                break;
            }
        }
        std::string_view base = split == std::string_view::npos
            ? s : trim(s.substr(0, split));
        const int base_reg = parseReg(base);
        if (base_reg < 0) {
            error(stmt.line, "bad base register in '" + tok + "'");
            return false;
        }
        inst.rs1 = static_cast<std::uint8_t>(base_reg);
        if (split == std::string_view::npos) {
            inst.useImm = true;
            inst.imm = 0;
            return true;
        }
        std::string off(trim(s.substr(split + 1)));
        if (sign == '-')
            off.insert(off.begin(), '-');
        return parseSrc2(stmt, off, inst);
    }

    bool
    parseTarget(const Statement &stmt, const std::string &tok,
                std::uint64_t &target)
    {
        if (const auto sym = lookup(tok)) {
            target = *sym;
            return true;
        }
        if (const auto num = parseInt(tok)) {
            target = static_cast<std::uint64_t>(*num);
            return true;
        }
        error(stmt.line, "undefined target '" + tok + "'");
        return false;
    }

    bool
    expectOperands(const Statement &stmt, std::size_t n)
    {
        if (stmt.operands.size() == n)
            return true;
        error(stmt.line, "'" + stmt.mnemonic + "' expects " +
              std::to_string(n) + " operand(s), got " +
              std::to_string(stmt.operands.size()));
        return false;
    }

    bool
    parseDestReg(const Statement &stmt, const std::string &tok,
                 Instruction &inst)
    {
        const int reg = parseReg(tok);
        if (reg < 0) {
            error(stmt.line, "bad register '" + tok + "'");
            return false;
        }
        inst.rd = static_cast<std::uint8_t>(reg);
        return true;
    }

    void
    encodeInstr(const Statement &stmt)
    {
        const std::string &m = stmt.mnemonic;
        Instruction inst;

        if (const auto alu = kAluMnemonics.find(m);
            alu != kAluMnemonics.end()) {
            inst.op = alu->second;
            if (!expectOperands(stmt, 3))
                return;
            if (!parseDestReg(stmt, stmt.operands[0], inst))
                return;
            const int rs1 = parseReg(stmt.operands[1]);
            if (rs1 < 0) {
                error(stmt.line, "bad register '" + stmt.operands[1] + "'");
                return;
            }
            inst.rs1 = static_cast<std::uint8_t>(rs1);
            if (!parseSrc2(stmt, stmt.operands[2], inst))
                return;
            push(inst);
            return;
        }

        if (const auto mem = kMemMnemonics.find(m);
            mem != kMemMnemonics.end()) {
            inst.op = mem->second;
            if (!expectOperands(stmt, 2))
                return;
            if (!parseDestReg(stmt, stmt.operands[0], inst))
                return;
            if (!parseMem(stmt, stmt.operands[1], inst))
                return;
            push(inst);
            return;
        }

        if (const auto br = kBranchMnemonics.find(m);
            br != kBranchMnemonics.end()) {
            inst.op = Opcode::BCC;
            inst.cond = br->second;
            if (!expectOperands(stmt, 1))
                return;
            if (!parseTarget(stmt, stmt.operands[0], inst.target))
                return;
            push(inst);
            return;
        }

        if (m == "mov") {
            inst.op = Opcode::MOV;
            if (!expectOperands(stmt, 2))
                return;
            if (!parseDestReg(stmt, stmt.operands[0], inst))
                return;
            if (!parseSrc2(stmt, stmt.operands[1], inst))
                return;
            push(inst);
            return;
        }

        if (m == "sethi") {
            inst.op = Opcode::SETHI;
            if (!expectOperands(stmt, 2))
                return;
            if (!parseDestReg(stmt, stmt.operands[0], inst))
                return;
            const auto imm = parseInt(stmt.operands[1]);
            if (!imm || *imm < 0 || *imm > kSethiMax) {
                error(stmt.line, "sethi immediate out of range");
                return;
            }
            inst.useImm = true;
            inst.imm = static_cast<std::int32_t>(*imm);
            push(inst);
            return;
        }

        if (m == "inc" || m == "dec") {
            // inc/dec rN  ==  add/sub rN, rN, 1
            inst.op = m == "inc" ? Opcode::ADD : Opcode::SUB;
            if (!expectOperands(stmt, 1))
                return;
            if (!parseDestReg(stmt, stmt.operands[0], inst))
                return;
            inst.rs1 = inst.rd;
            inst.useImm = true;
            inst.imm = 1;
            push(inst);
            return;
        }

        if (m == "neg") {
            // neg rd, rs  ==  sub rd, r0, rs
            inst.op = Opcode::SUB;
            if (!expectOperands(stmt, 2))
                return;
            if (!parseDestReg(stmt, stmt.operands[0], inst))
                return;
            inst.rs1 = kRegZero;
            if (!parseSrc2(stmt, stmt.operands[1], inst))
                return;
            push(inst);
            return;
        }

        if (m == "not") {
            // not rd, rs  ==  xor rd, rs, -1
            inst.op = Opcode::XOR;
            if (!expectOperands(stmt, 2))
                return;
            if (!parseDestReg(stmt, stmt.operands[0], inst))
                return;
            const int rs1 = parseReg(stmt.operands[1]);
            if (rs1 < 0) {
                error(stmt.line, "bad register '" + stmt.operands[1] +
                      "'");
                return;
            }
            inst.rs1 = static_cast<std::uint8_t>(rs1);
            inst.useImm = true;
            inst.imm = -1;
            push(inst);
            return;
        }

        if (m == "cmp") {
            // cmp a, b  ==  subcc r0, a, b
            inst.op = Opcode::SUBCC;
            inst.rd = kRegZero;
            if (!expectOperands(stmt, 2))
                return;
            const int rs1 = parseReg(stmt.operands[0]);
            if (rs1 < 0) {
                error(stmt.line, "bad register '" + stmt.operands[0] + "'");
                return;
            }
            inst.rs1 = static_cast<std::uint8_t>(rs1);
            if (!parseSrc2(stmt, stmt.operands[1], inst))
                return;
            push(inst);
            return;
        }

        if (m == "li") {
            if (!expectOperands(stmt, 2))
                return;
            Instruction scratch;
            if (!parseDestReg(stmt, stmt.operands[0], scratch))
                return;
            const auto value = parseInt(stmt.operands[1]);
            if (!value) {
                error(stmt.line, "li needs a numeric constant (use la "
                      "for labels)");
                return;
            }
            emitLoadImmediate(scratch.rd, *value);
            return;
        }

        if (m == "la") {
            if (!expectOperands(stmt, 2))
                return;
            Instruction scratch;
            if (!parseDestReg(stmt, stmt.operands[0], scratch))
                return;
            const auto sym = lookup(stmt.operands[1]);
            if (!sym) {
                error(stmt.line, "undefined label '" + stmt.operands[1] +
                      "'");
                return;
            }
            // Always a sethi/or pair so expansionSize() stays constant.
            const auto addr = static_cast<std::uint32_t>(*sym);
            Instruction hi;
            hi.op = Opcode::SETHI;
            hi.rd = scratch.rd;
            hi.useImm = true;
            hi.imm = static_cast<std::int32_t>(addr >> 12);
            push(hi);
            Instruction lo;
            lo.op = Opcode::OR;
            lo.rd = scratch.rd;
            lo.rs1 = scratch.rd;
            lo.useImm = true;
            lo.imm = static_cast<std::int32_t>(addr & 0xfff);
            push(lo);
            return;
        }

        if (m == "ba") {
            inst.op = Opcode::BA;
            if (!expectOperands(stmt, 1))
                return;
            if (!parseTarget(stmt, stmt.operands[0], inst.target))
                return;
            push(inst);
            return;
        }

        if (m == "call") {
            inst.op = Opcode::CALL;
            if (!expectOperands(stmt, 1))
                return;
            if (!parseTarget(stmt, stmt.operands[0], inst.target))
                return;
            push(inst);
            return;
        }

        if (m == "jmpi") {
            inst.op = Opcode::JMPI;
            if (!expectOperands(stmt, 1))
                return;
            if (!parseMem(stmt, stmt.operands[0], inst))
                return;
            push(inst);
            return;
        }

        if (m == "calli") {
            inst.op = Opcode::CALLI;
            if (!expectOperands(stmt, 1))
                return;
            if (!parseMem(stmt, stmt.operands[0], inst))
                return;
            push(inst);
            return;
        }

        if (m == "ret") {
            inst.op = Opcode::RET;
            if (!expectOperands(stmt, 0))
                return;
            push(inst);
            return;
        }

        if (m == "halt") {
            inst.op = Opcode::HALT;
            if (!expectOperands(stmt, 0))
                return;
            push(inst);
            return;
        }

        if (m == "nop") {
            inst.op = Opcode::NOP;
            if (!expectOperands(stmt, 0))
                return;
            push(inst);
            return;
        }

        error(stmt.line, "unknown mnemonic '" + m + "'");
    }

    void
    emitLoadImmediate(std::uint8_t rd, std::int64_t value)
    {
        if (value >= kImmMin && value <= kImmMax) {
            Instruction inst;
            inst.op = Opcode::MOV;
            inst.rd = rd;
            inst.useImm = true;
            inst.imm = static_cast<std::int32_t>(value);
            push(inst);
            return;
        }
        const auto u = static_cast<std::uint32_t>(value);
        Instruction hi;
        hi.op = Opcode::SETHI;
        hi.rd = rd;
        hi.useImm = true;
        hi.imm = static_cast<std::int32_t>(u >> 12);
        push(hi);
        if ((u & 0xfff) != 0) {
            Instruction lo;
            lo.op = Opcode::OR;
            lo.rd = rd;
            lo.rs1 = rd;
            lo.useImm = true;
            lo.imm = static_cast<std::int32_t>(u & 0xfff);
            push(lo);
        }
    }

    void
    resolveEntry()
    {
        if (result_.program.text.empty()) {
            result_.errors.push_back({0, "program has no instructions"});
            return;
        }
        if (const auto main_sym = lookup("main"))
            result_.program.entry = *main_sym;
        else
            result_.program.entry = kTextBase;
    }

    std::string_view source_;
    std::vector<Statement> statements_;
    std::map<std::string, std::uint64_t> symbols_;
    AsmResult result_;
};

} // anonymous namespace

std::string
AsmResult::errorText() const
{
    std::ostringstream out;
    for (const AsmError &e : errors)
        out << e.toString() << '\n';
    return out.str();
}

AsmResult
assemble(std::string_view source)
{
    return Assembler(source).run();
}

Program
assembleOrDie(std::string_view source)
{
    AsmResult result = assemble(source);
    if (!result.ok())
        ddsc_fatal("assembly failed:\n%s", result.errorText().c_str());
    return std::move(result.program);
}

Program
assembleFileOrDie(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        ddsc_fatal("cannot open '%s'", path.c_str());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return assembleOrDie(buffer.str());
}

} // namespace ddsc
