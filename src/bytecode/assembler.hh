#ifndef PEP_BYTECODE_ASSEMBLER_HH
#define PEP_BYTECODE_ASSEMBLER_HH

/**
 * @file
 * Text assembler for the bytecode, used by examples and tests to write
 * programs legibly. Grammar (line oriented; ';' and '#' start comments):
 *
 *   .globals <size>
 *   .data <int> <int> ...          ; appended to the globals initializer
 *   .method <name> <numArgs> <numLocals> [returns]
 *   <label>:
 *       <mnemonic> [operands]
 *   .end
 *   .main <name>
 *
 * Branch operands are labels; `invoke` takes a method name (forward
 * references to methods and labels are resolved). `tableswitch` takes:
 * lo, then the default label, then one label per case.
 */

#include <string>

#include "bytecode/method.hh"

namespace pep::bytecode {

/** Result of assembling a program. */
struct AssembleResult
{
    bool ok = true;
    std::string error;
    Program program;
};

/** Assemble the given source text (does not run the verifier). */
AssembleResult assemble(const std::string &source);

/**
 * Assemble and verify; on failure `error` holds the assembler's or the
 * verifier's first error. The entry point for user-supplied files.
 */
AssembleResult assembleVerified(const std::string &source);

/**
 * assembleVerified, calling support::fatal on any error. Convenient
 * for tests and built-in programs with known-good sources.
 */
Program assembleOrDie(const std::string &source);

} // namespace pep::bytecode

#endif // PEP_BYTECODE_ASSEMBLER_HH
