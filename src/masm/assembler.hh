/**
 * @file
 * A two-pass assembler for the ddsc mini ISA.
 *
 * The workloads under src/workloads are written in this assembly
 * language.  Syntax summary:
 *
 *     ; comment (also #)
 *     .text                  ; switch to the text segment (default)
 *     .data                  ; switch to the data segment
 *     .word v, v, ...        ; 32-bit values (numbers or label addresses)
 *     .byte v, v, ...        ; 8-bit values
 *     .space n               ; n zero bytes
 *     .align n               ; pad the data segment to an n-byte boundary
 *
 *     main:                  ; labels; "main" is the entry point
 *         add   r1, r2, r3
 *         add   r1, r2, 12   ; simm13 immediates: -4096..4095
 *         subcc r0, r1, r2   ; cc-setting variants
 *         cmp   r1, r2       ; pseudo: subcc r0, r1, r2
 *         mov   r1, r2       ; also mov r1, imm
 *         sethi r1, 0x12345  ; r1 = imm << 12
 *         li    r1, 0xdeadbeef   ; pseudo: mov, or sethi+or
 *         la    r1, buffer   ; pseudo: sethi+or of a label address
 *         sll   r1, r2, 3
 *         ldw   r1, [r2 + 8] ; also [r2 + r3] and [r2]
 *         stw   r1, [r2 + r3]
 *         beq   target       ; beq bne blt ble bgt bge bltu bleu
 *         ba    target       ;   bgtu bgeu bneg bpos
 *         call  function     ; writes the link register r15
 *         ret                ; returns through r15
 *         jmpi  [r1 + 0]     ; indirect jump
 *         halt
 *
 * Registers: r0..r31 with aliases zero (r0), sp (r14), lr (r15).
 * The 13-bit immediate limit is deliberate: like SPARC, wide constants
 * require a sethi/or pair, which is one of the collapsible idioms the
 * paper's Table 5 reports (mvi-lgri).
 */

#ifndef DDSC_MASM_ASSEMBLER_HH
#define DDSC_MASM_ASSEMBLER_HH

#include <string>
#include <string_view>
#include <vector>

#include "isa/instruction.hh"

namespace ddsc
{

/** One assembly diagnostic. */
struct AsmError
{
    int line;               ///< 1-based source line
    std::string message;

    std::string
    toString() const
    {
        return "line " + std::to_string(line) + ": " + message;
    }
};

/** Result of assembling a source string. */
struct AsmResult
{
    Program program;
    std::vector<AsmError> errors;

    bool ok() const { return errors.empty(); }

    /** All diagnostics joined by newlines. */
    std::string errorText() const;
};

/**
 * Assemble @p source.  Never throws; syntax problems are reported in
 * the result's error list and the program is left incomplete.
 */
AsmResult assemble(std::string_view source);

/**
 * Assemble @p source and fatal() with the diagnostics when it fails.
 * This is the entry point the built-in workloads use: their sources are
 * compiled into the binary, so failure is a programming error.
 */
Program assembleOrDie(std::string_view source);

/** Read the assembly file @p path and assembleOrDie() it; fatal() when
 *  the file cannot be opened.  The tools' entry point for a program
 *  given by path. */
Program assembleFileOrDie(const std::string &path);

} // namespace ddsc

#endif // DDSC_MASM_ASSEMBLER_HH
