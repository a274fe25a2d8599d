//! Deterministic mutators over the pipeline's input layers.
//!
//! Every mutator is a pure function of `(seed material, RNG state)`: the
//! same [`SplitMix64`] stream produces the same mutant, so whole campaigns
//! replay bit-identically from a seed. Mutants are *not* required to be
//! valid — the harness's entire point is to measure how the pipeline
//! rejects them — but each mutator starts from well-formed seed material
//! so a useful fraction of mutants survives deep into the pipeline.

use crate::subject::Input;
use supersym_lang::ast::{BinOp, Block, Expr, Module, Stmt, UnOp};
use supersym_rng::SplitMix64;

/// The mutation layers from the robustness campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Byte/token-level mutations of `.tital` source text.
    Source,
    /// Node-level mutations of checked ASTs (fed in past the parser).
    Ast,
    /// Line/operand-level mutations of scheduled instruction streams.
    Asm,
    /// Key/value-level mutations of `.machine` descriptions.
    Machine,
    /// Token-level mutations of sweep grid specs (`axis=value,...`).
    Grid,
}

impl Layer {
    /// All layers, campaign order.
    pub const ALL: [Layer; 5] = [
        Layer::Source,
        Layer::Ast,
        Layer::Asm,
        Layer::Machine,
        Layer::Grid,
    ];

    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Source => "source",
            Layer::Ast => "ast",
            Layer::Asm => "asm",
            Layer::Machine => "machine",
            Layer::Grid => "grid",
        }
    }

    /// Parses a layer name (the `--layer` CLI flag).
    #[must_use]
    pub fn parse(name: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == name)
    }
}

/// Built-in Tital seed programs: small, varied (arrays, calls, floats,
/// recursion, loops), and quick to compile and run.
pub const SOURCE_SEEDS: &[&str] = &[
    "global arr a[32];
global var total = 0;
fn fill(int n) {
    for (i = 0; i < n; i = i + 1) { a[i] = i * 3 + 1; }
}
fn sum(int n) -> int {
    var s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
    return s;
}
fn main() -> int {
    fill(32);
    total = sum(32);
    return total;
}",
    "fn fib(int n) -> int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
fn main() -> int {
    return fib(12);
}",
    "global farr x[16];
global farr y[16];
fn main() -> float {
    fvar acc = 0.0;
    for (i = 0; i < 16; i = i + 1) {
        x[i] = itof(i) * 0.5;
        y[i] = itof(16 - i);
    }
    for (i = 0; i < 16; i = i + 1) {
        acc = acc + x[i] * y[i];
    }
    return acc;
}",
    "global var flips = 0;
fn collatz(int n) -> int {
    var steps = 0;
    while (n > 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps = steps + 1;
    }
    return steps;
}
fn main() -> int {
    var worst = 0;
    for (i = 1; i < 40; i = i + 1) {
        var s = collatz(i);
        if (s > worst) { worst = s; flips = flips + 1; }
    }
    return worst * 100 + flips;
}",
];

/// Built-in assembly seed (the `parse_program` grammar); drivers normally
/// extend this with freshly scheduled compiler output.
pub const ASM_SEEDS: &[&str] = &["\
main:
  movi r9, #7
  movi r10, #35
  add r11, r9, r10
  movi r12, #0
L0:
  add r12, r12, r11
  sub r9, r9, #1
  cmpgt r13, r9, #0
  bt r13, L0
  movi r14, #100
  st 0(r14), r12
  halt
"];

/// Built-in `.machine` seed descriptions.
pub const MACHINE_SEEDS: &[&str] = &[
    "# a plausible two-wide machine
name torture-two-wide
issue_width 2
latency load 2
latency fpmul 4
unit alu classes=logical,shift,add/sub,compare,intmul,intdiv multiplicity=2
unit mem classes=load,store multiplicity=1
unit ctrl classes=branch,jump multiplicity=1
unit fp classes=fpadd,fpmul,fpdiv,fpcvt multiplicity=1 issue_latency=2
",
    "# deep superpipeline, real branch prediction
name torture-superpipe
issue_width 1
pipe_degree 4
latency load 4
latency add/sub 4
latency shift 4
latency logical 4
latency compare 4
latency fpadd 6
latency fpmul 8
latency fpdiv 40
branch_prediction real
taken_branch_breaks_issue true
split int_temps=16 int_globals=26 fp_temps=16 fp_globals=26
",
];

/// Built-in sweep-grid seed specs: well-formed, small cell counts, every
/// axis exercised.
pub const GRID_SEEDS: &[&str] = &[
    "issue=1,2,4,8 pipe=1,2 lat=unit,titan",
    "issue=1..4 pipe=1 lat=cray fu=shared split=wide",
    "issue=2 pipe=1,2,4,8 lat=unit fu=ideal,shared split=default,wide",
];

/// Tokens the grid mutator splices in: axis names, values, range and list
/// punctuation, plus numbers chosen to land on and beyond the axis caps.
const GRID_TOKENS: &[&str] = &[
    "issue=",
    "pipe=",
    "lat=",
    "fu=",
    "split=",
    "unit",
    "titan",
    "cray",
    "ideal",
    "shared",
    "default",
    "wide",
    "..",
    ",",
    "=",
    " ",
    "0",
    "1",
    "16",
    "17",
    "64",
    "65",
    "4096",
    "18446744073709551615",
    "bogus",
];

/// Tokens the source mutator splices in: every keyword and operator the
/// lexer knows, plus identifiers and literals that collide with seed
/// names.
const SOURCE_TOKENS: &[&str] = &[
    "fn",
    "var",
    "fvar",
    "global",
    "arr",
    "farr",
    "if",
    "else",
    "while",
    "for",
    "return",
    "int",
    "float",
    "itof",
    "ftoi",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "<<",
    ">>",
    "==",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "&&",
    "||",
    "!",
    "=",
    "->",
    "main",
    "a",
    "i",
    "s",
    "n",
    "0",
    "1",
    "9223372036854775807",
    "-9223372036854775808",
    "0.5",
    "1e308",
];

/// Mutates raw text: delete, duplicate, transpose or overwrite byte
/// spans, splice tokens from `tokens`, or cross over with another seed.
/// Returns valid UTF-8 (lossy) so downstream parsers see a `&str`.
fn mutate_text(rng: &mut SplitMix64, seeds: &[&str], extra: &[String], tokens: &[&str]) -> String {
    let seed = pick_seed(rng, seeds, extra);
    let mut bytes: Vec<u8> = seed.into_bytes();
    let rounds = 1 + rng.below(4);
    for _ in 0..rounds {
        if bytes.is_empty() {
            bytes.extend_from_slice(tokens[rng.below(tokens.len())].as_bytes());
            continue;
        }
        match rng.below(8) {
            // Delete a span.
            0 => {
                let start = rng.below(bytes.len());
                let len = 1 + rng.below(16.min(bytes.len() - start));
                bytes.drain(start..start + len);
            }
            // Duplicate a span in place.
            1 => {
                let start = rng.below(bytes.len());
                let len = 1 + rng.below(16.min(bytes.len() - start));
                let span: Vec<u8> = bytes[start..start + len].to_vec();
                let at = rng.below(bytes.len() + 1);
                bytes.splice(at..at, span);
            }
            // Overwrite one byte with a random printable character.
            2 => {
                let at = rng.below(bytes.len());
                bytes[at] = 0x20 + (rng.below(0x5f) as u8);
            }
            // Insert a language token.
            3 => {
                let at = rng.below(bytes.len() + 1);
                let token = *rng.pick(tokens);
                bytes.splice(at..at, token.bytes());
            }
            // Transpose two spans.
            4 => {
                let a = rng.below(bytes.len());
                let b = rng.below(bytes.len());
                bytes.swap(a, b);
            }
            // Truncate.
            5 => {
                let at = rng.below(bytes.len() + 1);
                bytes.truncate(at);
            }
            // Cross over: prefix of this seed, suffix of another.
            6 => {
                let other = pick_seed(rng, seeds, extra).into_bytes();
                let cut_a = rng.below(bytes.len() + 1);
                let cut_b = rng.below(other.len() + 1);
                bytes.truncate(cut_a);
                bytes.extend_from_slice(&other[cut_b..]);
            }
            // Insert a random digit (perturbs literals and counts without
            // manufacturing astronomically long numbers).
            _ => {
                let at = rng.below(bytes.len() + 1);
                bytes.insert(at, b'0' + (rng.below(10) as u8));
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn pick_seed(rng: &mut SplitMix64, seeds: &[&str], extra: &[String]) -> String {
    let total = seeds.len() + extra.len();
    let k = rng.below(total.max(1));
    if k < seeds.len() {
        seeds[k].to_string()
    } else {
        extra[k - seeds.len()].clone()
    }
}

/// A `.tital` source-text mutant.
#[must_use]
pub fn mutate_source(rng: &mut SplitMix64, extra_seeds: &[String]) -> Input {
    Input::Source(mutate_text(rng, SOURCE_SEEDS, extra_seeds, SOURCE_TOKENS))
}

/// An assembly-text mutant: swap/drop/duplicate whole instructions,
/// corrupt operands, retarget labels — the ISSUE's instruction-stream
/// layer, expressed on the round-trippable text form.
#[must_use]
pub fn mutate_asm(rng: &mut SplitMix64, extra_seeds: &[String]) -> Input {
    let seed = pick_seed(rng, ASM_SEEDS, extra_seeds);
    let mut lines: Vec<String> = seed.lines().map(str::to_string).collect();
    let rounds = 1 + rng.below(4);
    for _ in 0..rounds {
        if lines.is_empty() {
            lines.push("halt".to_string());
            continue;
        }
        match rng.below(6) {
            // Swap two instruction lines (reorders the schedule).
            0 => {
                let a = rng.below(lines.len());
                let b = rng.below(lines.len());
                lines.swap(a, b);
            }
            // Drop an instruction.
            1 => {
                let at = rng.below(lines.len());
                lines.remove(at);
            }
            // Duplicate an instruction.
            2 => {
                let at = rng.below(lines.len());
                let line = lines[at].clone();
                lines.insert(at, line);
            }
            // Corrupt an operand: rewrite the first register/immediate
            // token on a random line.
            3 => {
                let at = rng.below(lines.len());
                lines[at] = corrupt_operand(rng, &lines[at]);
            }
            // Retarget or invent a label reference.
            4 => {
                let at = rng.below(lines.len());
                let n = rng.below(8);
                if let Some(pos) = lines[at].find('L') {
                    let line = &lines[at];
                    let end = line[pos + 1..]
                        .find(|c: char| !c.is_ascii_digit())
                        .map_or(line.len(), |e| pos + 1 + e);
                    lines[at] = format!("{}L{}{}", &line[..pos], n, &line[end..]);
                } else {
                    lines.insert(at, format!("  br L{n}"));
                }
            }
            // Byte-level fallback: garble a character.
            _ => {
                let at = rng.below(lines.len());
                let mut bytes = lines[at].clone().into_bytes();
                if !bytes.is_empty() {
                    let k = rng.below(bytes.len());
                    bytes[k] = 0x20 + (rng.below(0x5f) as u8);
                }
                lines[at] = String::from_utf8_lossy(&bytes).into_owned();
            }
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    Input::Asm(text)
}

/// Rewrites the first operand-looking token (`rN`, `fN`, `vN`, `#imm`) on
/// an instruction line.
fn corrupt_operand(rng: &mut SplitMix64, line: &str) -> String {
    for (index, token) in line.split_whitespace().enumerate() {
        if index == 0 {
            continue; // mnemonic
        }
        let clean = token.trim_end_matches(',');
        let replacement = match clean.as_bytes() {
            [b'r', rest @ ..] if rest.iter().all(u8::is_ascii_digit) => {
                format!("r{}", rng.below(40))
            }
            [b'f', rest @ ..] if rest.iter().all(u8::is_ascii_digit) => {
                format!("f{}", rng.below(40))
            }
            [b'#', ..] => format!("#{}", rng.interesting_i64()),
            _ => continue,
        };
        let suffix = if token.ends_with(',') { "," } else { "" };
        return line.replacen(token, &format!("{replacement}{suffix}"), 1);
    }
    line.to_string()
}

/// A `.machine` description mutant. Values stay small (digit edits, a
/// bounded value palette) so hostile-but-parseable descriptions exercise
/// the lint and the scheduler rather than the allocator.
#[must_use]
pub fn mutate_machine(rng: &mut SplitMix64) -> Input {
    const KEYS: &[&str] = &[
        "issue_width 0",
        "issue_width 64",
        "pipe_degree 0",
        "pipe_degree 16",
        "latency load 0",
        "latency load 200",
        "latency fpdiv 999999",
        "latency branch 0",
        "unit dup classes=load multiplicity=1",
        "unit weird classes= multiplicity=3",
        "unit solo classes=jump multiplicity=0",
        "split int_temps=0 int_globals=0 fp_temps=0 fp_globals=0",
        "split int_temps=2 int_globals=1 fp_temps=2 fp_globals=1",
        "split int_temps=255 int_globals=255 fp_temps=255 fp_globals=255",
        "branch_prediction real",
        "taken_branch_breaks_issue maybe",
        "frobnicate 3",
    ];
    let seed = *rng.pick(MACHINE_SEEDS);
    let mut lines: Vec<String> = seed.lines().map(str::to_string).collect();
    let rounds = 1 + rng.below(3);
    for _ in 0..rounds {
        match rng.below(5) {
            // Inject a hostile key/value line.
            0 => {
                let at = rng.below(lines.len() + 1);
                lines.insert(at, (*rng.pick(KEYS)).to_string());
            }
            // Drop a line.
            1 if !lines.is_empty() => {
                let at = rng.below(lines.len());
                lines.remove(at);
            }
            // Duplicate a line (doubly-covered classes, repeated keys).
            2 if !lines.is_empty() => {
                let at = rng.below(lines.len());
                let line = lines[at].clone();
                lines.insert(at, line);
            }
            // Rewrite one digit somewhere.
            3 if !lines.is_empty() => {
                let at = rng.below(lines.len());
                let mut bytes = lines[at].clone().into_bytes();
                let digit_positions: Vec<usize> = bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.is_ascii_digit())
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&pos) = digit_positions
                    .get(rng.below(digit_positions.len().max(1)))
                    .filter(|_| !digit_positions.is_empty())
                {
                    bytes[pos] = b'0' + (rng.below(10) as u8);
                }
                lines[at] = String::from_utf8_lossy(&bytes).into_owned();
            }
            // Garble a word (unknown keys and class names).
            _ if !lines.is_empty() => {
                let at = rng.below(lines.len());
                let words: Vec<&str> = lines[at].split_whitespace().collect();
                if !words.is_empty() {
                    let victim = words[rng.below(words.len())].to_string();
                    lines[at] = lines[at].replacen(&victim, "bogus", 1);
                }
            }
            _ => {}
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    Input::Machine(text)
}

/// A sweep-grid spec mutant: the same text havoc as the source layer,
/// over a vocabulary of axis names, values and boundary numbers — the
/// cell-count cap, the per-axis ranges and the range/list punctuation are
/// exactly the places a grid parser can be talked into overflowing.
#[must_use]
pub fn mutate_grid(rng: &mut SplitMix64) -> Input {
    Input::Grid(mutate_text(rng, GRID_SEEDS, &[], GRID_TOKENS))
}

/// An AST mutant: parse a seed (seeds always parse), then rewrite nodes
/// in ways the parser could never produce — exactly the point, since this
/// layer exercises the checker, lowering and the optimizer behind the
/// parser's back.
#[must_use]
pub fn mutate_ast(rng: &mut SplitMix64, extra_seeds: &[String]) -> Input {
    let seed = pick_seed(rng, SOURCE_SEEDS, extra_seeds);
    let mut module = match supersym_lang::parse(&seed) {
        Ok(module) => module,
        // Extra seeds are not required to parse; fall back to a built-in.
        Err(_) => supersym_lang::parse(SOURCE_SEEDS[0]).expect("built-in seed parses"),
    };
    let rounds = 1 + rng.below(4);
    for _ in 0..rounds {
        mutate_module(rng, &mut module);
    }
    Input::Ast(module)
}

const BIN_OPS: &[BinOp] = &[
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

fn mutate_module(rng: &mut SplitMix64, module: &mut Module) {
    match rng.below(10) {
        // Rename a function (dangling calls, duplicate definitions).
        0 if !module.funcs.is_empty() => {
            let k = rng.below(module.funcs.len());
            let names = ["main", "fill", "sum", "fib", "ghost"];
            module.funcs[k].name = (*rng.pick(&names)).to_string();
        }
        // Delete a whole function.
        1 if module.funcs.len() > 1 => {
            let k = rng.below(module.funcs.len());
            module.funcs.remove(k);
        }
        // Change a call's arity or an expression elsewhere.
        _ if !module.funcs.is_empty() => {
            let k = rng.below(module.funcs.len());
            let body = &mut module.funcs[k].body;
            mutate_block(rng, body);
        }
        _ => {}
    }
}

fn mutate_block(rng: &mut SplitMix64, block: &mut Block) {
    if block.stmts.is_empty() {
        block.stmts.push(Stmt::Return(Some(Expr::IntLit(1))));
        return;
    }
    match rng.below(8) {
        // Swap two statements.
        0 => {
            let a = rng.below(block.stmts.len());
            let b = rng.below(block.stmts.len());
            block.stmts.swap(a, b);
        }
        // Duplicate a statement.
        1 => {
            let at = rng.below(block.stmts.len());
            let stmt = block.stmts[at].clone();
            block.stmts.insert(at, stmt);
        }
        // Delete a statement.
        2 => {
            let at = rng.below(block.stmts.len());
            block.stmts.remove(at);
        }
        // Recurse into a statement and mutate an expression or nested
        // block.
        _ => {
            let at = rng.below(block.stmts.len());
            mutate_stmt(rng, &mut block.stmts[at]);
        }
    }
}

fn mutate_stmt(rng: &mut SplitMix64, stmt: &mut Stmt) {
    match stmt {
        Stmt::Let { init: e, .. }
        | Stmt::Assign { value: e, .. }
        | Stmt::Return(Some(e))
        | Stmt::ExprStmt(e) => mutate_expr(rng, e),
        Stmt::AssignElem { index, value, .. } => {
            if rng.coin() {
                mutate_expr(rng, index);
            } else {
                mutate_expr(rng, value);
            }
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => match rng.below(3) {
            0 => mutate_expr(rng, cond),
            1 => mutate_block(rng, then_blk),
            _ => {
                if let Some(else_blk) = else_blk {
                    mutate_block(rng, else_blk);
                } else {
                    *else_blk = Some(Block { stmts: vec![] });
                }
            }
        },
        Stmt::While { cond, body } => {
            if rng.coin() {
                mutate_expr(rng, cond);
            } else {
                mutate_block(rng, body);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => match rng.below(4) {
            0 => mutate_expr(rng, init),
            1 => mutate_expr(rng, cond),
            2 => *step = rng.interesting_i64(),
            _ => mutate_block(rng, body),
        },
        Stmt::Return(None) => *stmt = Stmt::Return(Some(Expr::IntLit(rng.interesting_i64()))),
    }
}

fn mutate_expr(rng: &mut SplitMix64, expr: &mut Expr) {
    match rng.below(8) {
        // Replace outright with an interesting literal.
        0 => *expr = Expr::IntLit(rng.interesting_i64()),
        // Replace with a float literal (type confusion on purpose).
        1 => *expr = Expr::FloatLit(f64::from(rng.below(1000) as u32) * 0.25),
        // Replace with a possibly-undefined variable.
        2 => {
            let names = ["i", "s", "n", "acc", "ghost", "a"];
            *expr = Expr::Var((*rng.pick(&names)).to_string());
        }
        // Flip a binary operator.
        3 => {
            if let Expr::Binary { op, .. } = expr {
                *op = *rng.pick(BIN_OPS);
            } else {
                let inner = expr.clone();
                *expr = Expr::binary(*rng.pick(BIN_OPS), inner, Expr::IntLit(1));
            }
        }
        // Wrap in a unary.
        4 => {
            let inner = expr.clone();
            *expr = Expr::Unary {
                op: if rng.coin() { UnOp::Neg } else { UnOp::Not },
                expr: Box::new(inner),
            };
        }
        // Turn into a call (wrong arity, maybe unknown callee).
        5 => {
            let inner = expr.clone();
            let names = ["main", "fill", "sum", "fib", "collatz", "ghost"];
            let mut args = vec![inner];
            for _ in 0..rng.below(3) {
                args.push(Expr::IntLit(rng.interesting_i64()));
            }
            *expr = Expr::Call {
                name: (*rng.pick(&names)).to_string(),
                args,
            };
        }
        // Index an array with this expression.
        6 => {
            let inner = expr.clone();
            let arrs = ["a", "x", "y", "ghost"];
            *expr = Expr::Elem {
                arr: (*rng.pick(&arrs)).to_string(),
                index: Box::new(inner),
            };
        }
        // Descend into a child if one exists, else perturb a literal.
        _ => match expr {
            Expr::IntLit(v) => *v = rng.interesting_i64(),
            Expr::FloatLit(v) => *v = -*v,
            Expr::Var(_) => {}
            Expr::Elem { index: e, .. }
            | Expr::Unary { expr: e, .. }
            | Expr::Cast { expr: e, .. } => {
                mutate_expr(rng, e);
            }
            Expr::Binary { lhs, rhs, .. } => {
                let side = if rng.coin() { lhs } else { rhs };
                mutate_expr(rng, side);
            }
            Expr::Call { args, .. } => {
                if args.is_empty() {
                    args.push(Expr::IntLit(0));
                } else {
                    let k = rng.below(args.len());
                    mutate_expr(rng, &mut args[k]);
                }
            }
        },
    }
}

/// Produces the next mutant for a layer.
#[must_use]
pub fn mutate(
    layer: Layer,
    rng: &mut SplitMix64,
    extra_source: &[String],
    extra_asm: &[String],
) -> Input {
    match layer {
        Layer::Source => mutate_source(rng, extra_source),
        Layer::Ast => mutate_ast(rng, extra_source),
        Layer::Asm => mutate_asm(rng, extra_asm),
        Layer::Machine => mutate_machine(rng),
        Layer::Grid => mutate_grid(rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_well_formed() {
        for seed in SOURCE_SEEDS {
            let module = supersym_lang::parse(seed).expect("source seed parses");
            supersym_lang::check(&module).expect("source seed checks");
        }
        for seed in ASM_SEEDS {
            supersym_isa::parse_program(seed).expect("asm seed parses");
        }
        for seed in MACHINE_SEEDS {
            let spec = supersym_machine::parse_machine_spec(seed).expect("machine seed parses");
            assert!(
                !spec
                    .diagnose()
                    .iter()
                    .any(supersym_isa::Diagnostic::is_error),
                "machine seed lints clean"
            );
        }
        for seed in GRID_SEEDS {
            let grid = supersym_machine::GridSpec::parse(seed).expect("grid seed parses");
            assert!(grid.cell_count() > 0);
        }
    }

    #[test]
    fn mutants_are_deterministic() {
        for layer in Layer::ALL {
            let a = mutate(layer, &mut SplitMix64::new(99), &[], &[]);
            let b = mutate(layer, &mut SplitMix64::new(99), &[], &[]);
            assert_eq!(a.to_text(), b.to_text(), "layer {}", layer.name());
        }
    }

    #[test]
    fn mutants_vary_with_the_stream() {
        let mut rng = SplitMix64::new(5);
        let texts: Vec<String> = (0..20)
            .map(|_| mutate_source(&mut rng, &[]).to_text())
            .collect();
        let distinct: std::collections::HashSet<&String> = texts.iter().collect();
        assert!(distinct.len() > 5, "mutator collapsed to few outputs");
    }

    #[test]
    fn layer_names_round_trip() {
        for layer in Layer::ALL {
            assert_eq!(Layer::parse(layer.name()), Some(layer));
        }
        assert_eq!(Layer::parse("nosuch"), None);
    }
}
