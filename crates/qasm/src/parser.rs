//! OpenQASM 2.0 parsing in one pass over the source bytes.
//!
//! The lexer hands out tokens that borrow slices of the source, and the
//! parser looks one token ahead: nothing is copied per token, and a
//! statement's parameters and operands sit in fixed three-slot arrays.

use crate::{QasmError, MAX_QUBITS};
use std::f64::consts::PI;
use std::fmt;
use trios_ir::{Circuit, Gate, Instruction, Qubit};

#[cfg(test)]
mod reference;

/// Deepest nesting of parentheses and unary minus in a parameter
/// expression. The evaluator recurses once per level, so without a bound
/// a hostile expression could overflow the stack.
const MAX_NESTING: usize = 256;

/// Most instructions reserved before the first is parsed. The reservation
/// counts the `;` in the source; past this cap the vector grows as it
/// fills, so a file of bare semicolons cannot reserve memory out of
/// proportion to what it yields.
const MAX_RESERVED: usize = 1 << 16;

/// Parses OpenQASM 2.0 source into a [`Circuit`].
///
/// Supported surface: the `OPENQASM 2.0;` header, `include` (ignored),
/// any number of `qreg`/`creg` declarations (quantum registers are
/// flattened into one index space in declaration order), `gate`/`opaque`
/// declarations (bodies skipped — applications must still name gates this
/// library knows), `barrier` (ignored), `measure`, and gate applications
/// with parameter expressions over numbers, `pi`, `+ - * /` and
/// parentheses. Applying a one-qubit gate (or `measure`) to a bare
/// register name broadcasts it across the register.
///
/// Limits: the quantum registers may declare at most [`MAX_QUBITS`]
/// qubits together and each classical register at most [`MAX_QUBITS`]
/// bits, and a parameter expression nests parentheses and unary minus at
/// most 256 deep.
///
/// # Errors
///
/// Returns a [`QasmError`] describing the line and cause: unsupported
/// version, syntax errors, unknown gates, arity mismatches, references
/// to undeclared registers / out-of-range indices, a gate applied to one
/// qubit twice, or registers past the width cap. A lexical error (a
/// character no token starts with, a malformed number, an unterminated
/// string) anywhere in the file is reported ahead of any other error.
pub fn parse(source: &str) -> Result<Circuit, QasmError> {
    let mut parser = Parser::new(source)?;
    parser
        .run()
        .map_err(|error| parser.lexer.first_error().unwrap_or(error))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Number(f64),
    Str(&'a str),
    Punct(u8),
    Arrow,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "'{s}'"),
            Tok::Number(n) => write!(f, "number {n}"),
            Tok::Str(s) => write!(f, "string \"{s}\""),
            Tok::Punct(c) => write!(f, "'{}'", char::from(*c)),
            Tok::Arrow => write!(f, "'->'"),
        }
    }
}

/// Splits the source into tokens on demand. `pos` always sits on a char
/// boundary: every token and comment ends before an ASCII byte or at the
/// end, and a non-ASCII char is stepped over whole.
#[derive(Debug)]
struct Lexer<'a> {
    source: &'a str,
    pos: usize,
    /// Line of the byte at `pos`; a newline inside a string literal does
    /// not count.
    line: usize,
}

impl<'a> Lexer<'a> {
    /// The next token and its line, or `None` at the end of the source.
    /// An error ends the stream: later calls return `None`.
    ///
    /// Inlined into [`Parser::advance`], which stores the token straight
    /// into the lookahead: returned through memory instead, it made the
    /// whole parse about twice as slow on a 2-vCPU Xeon VM.
    #[inline(always)]
    fn next_token(&mut self) -> Result<Option<(usize, Tok<'a>)>, QasmError> {
        let bytes = self.source.as_bytes();
        while let Some(&byte) = bytes.get(self.pos) {
            let start = self.pos;
            let tok = match byte {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                    self.pos += 1;
                    continue;
                }
                b'/' if bytes.get(start + 1) == Some(&b'/') => {
                    self.pos = bytes[start..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |n| start + n);
                    continue;
                }
                b'-' if bytes.get(start + 1) == Some(&b'>') => {
                    self.pos += 2;
                    Tok::Arrow
                }
                b';' | b',' | b'(' | b')' | b'[' | b']' | b'{' | b'}' | b'+' | b'-' | b'*'
                | b'/' => {
                    self.pos += 1;
                    Tok::Punct(byte)
                }
                b'"' => {
                    let Some(len) = bytes[start + 1..].iter().position(|&c| c == b'"') else {
                        return Err(self.fail("end of file".into(), "closing '\"'"));
                    };
                    self.pos = start + len + 2;
                    Tok::Str(&self.source[start + 1..start + 1 + len])
                }
                b'0'..=b'9' | b'.' => self.number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    self.pos = bytes[start..]
                        .iter()
                        .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_'))
                        .map_or(bytes.len(), |n| start + n);
                    Tok::Ident(&self.source[start..self.pos])
                }
                _ => {
                    let c = self.source[start..].chars().next().expect("pos < len");
                    if c.is_whitespace() {
                        self.pos += c.len_utf8();
                        continue;
                    }
                    return Err(self.fail(format!("'{c}'"), "a token"));
                }
            };
            return Ok(Some((self.line, tok)));
        }
        Ok(None)
    }

    /// A number: digits, `.`, and an exponent (`e`/`E`, optionally signed).
    fn number(&mut self) -> Result<Tok<'a>, QasmError> {
        let bytes = self.source.as_bytes();
        let start = self.pos;
        let mut integer = true;
        let len = bytes[start..]
            .iter()
            .enumerate()
            .position(|(i, &c)| match c {
                b'0'..=b'9' => false,
                b'.' | b'e' | b'E' => {
                    integer = false;
                    false
                }
                // A sign continues the number only right after the `e`;
                // `i > 0` because the first byte is a digit or `.`.
                b'+' | b'-' => !matches!(bytes[start + i - 1], b'e' | b'E'),
                _ => true,
            })
            .unwrap_or(bytes.len() - start);
        self.pos = start + len;
        let text = &self.source[start..self.pos];
        // Fifteen decimal digits always fit an f64 exactly, so this is the
        // value `str::parse` rounds to, without its general algorithm.
        if integer && len <= 15 {
            let value = text.bytes().fold(0u64, |n, d| n * 10 + u64::from(d - b'0'));
            return Ok(Tok::Number(value as f64));
        }
        match text.parse() {
            Ok(value) => Ok(Tok::Number(value)),
            Err(_) => Err(self.fail(format!("'{text}'"), "a number")),
        }
    }

    /// A lexical error at the current line; it ends the token stream.
    fn fail(&mut self, found: String, expected: &str) -> QasmError {
        self.pos = self.source.len();
        QasmError::Unexpected {
            line: self.line,
            found,
            expected: expected.into(),
        }
    }

    /// The first lexical error from here to the end of the source.
    fn first_error(&mut self) -> Option<QasmError> {
        loop {
            match self.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(error) => return Some(error),
            }
        }
    }
}

/// `v` as an index below `bound`, if it is a whole number: what
/// `v.fract() == 0.0 && (v as usize) < bound` accepts, without the libm
/// call behind `fract`.
fn index_below(v: f64, bound: usize) -> Option<usize> {
    let index = v as usize;
    (index < bound && index as f64 == v).then_some(index)
}

#[derive(Debug)]
struct Register<'a> {
    name: &'a str,
    offset: usize,
    size: usize,
}

/// A parsed qubit argument: one qubit or a whole register (broadcast).
#[derive(Debug, Clone, Copy)]
enum QubitArg {
    One(usize),
    Whole(usize, usize), // offset, size
}

/// The first three items of a list and its full length. No gate takes
/// more than three parameters or operands, so a longer list is only ever
/// reported by its length.
#[derive(Debug)]
struct Slots<T> {
    items: [T; 3],
    len: usize,
}

impl<T: Copy> Slots<T> {
    fn new(fill: T) -> Self {
        Slots {
            items: [fill; 3],
            len: 0,
        }
    }

    fn push(&mut self, item: T) {
        if let Some(slot) = self.items.get_mut(self.len) {
            *slot = item;
        }
        self.len += 1;
    }

    /// The items, if there are at most three.
    fn get(&self) -> Option<&[T]> {
        self.items.get(..self.len)
    }
}

#[derive(Debug)]
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The lookahead token; `None` at the end of the source.
    peeked: Option<Tok<'a>>,
    /// Line of the last token lexed (the lookahead while there is one),
    /// or 0 if the source has none: the line errors point at.
    line: usize,
    qregs: Vec<Register<'a>>,
    /// Classical registers: name and size.
    cregs: Vec<(&'a str, usize)>,
    declared_gates: Vec<&'a str>,
    /// Qubits the quantum registers declare together.
    qubits: usize,
    /// Nesting of the parameter expression being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Result<Self, QasmError> {
        let mut parser = Parser {
            lexer: Lexer {
                source,
                pos: 0,
                line: 1,
            },
            peeked: None,
            line: 0,
            qregs: Vec::new(),
            cregs: Vec::new(),
            declared_gates: Vec::new(),
            qubits: 0,
            depth: 0,
        };
        parser.advance()?;
        Ok(parser)
    }

    /// Drops the lookahead token and lexes the next one.
    fn advance(&mut self) -> Result<(), QasmError> {
        self.peeked = match self.lexer.next_token()? {
            Some((line, tok)) => {
                self.line = line;
                Some(tok)
            }
            None => None,
        };
        Ok(())
    }

    /// Takes the lookahead token.
    fn next(&mut self) -> Result<Option<Tok<'a>>, QasmError> {
        let tok = self.peeked;
        if tok.is_some() {
            self.advance()?;
        }
        Ok(tok)
    }

    fn peek_punct(&self, c: u8) -> bool {
        self.peeked == Some(Tok::Punct(c))
    }

    fn unexpected(&self, expected: &str) -> QasmError {
        QasmError::Unexpected {
            line: self.line,
            found: self
                .peeked
                .map_or("end of file".into(), |tok| tok.to_string()),
            expected: expected.into(),
        }
    }

    fn expect_punct(&mut self, c: u8) -> Result<(), QasmError> {
        if self.peek_punct(c) {
            self.advance()
        } else {
            Err(self.unexpected(&format!("'{}'", char::from(c))))
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, QasmError> {
        match self.peeked {
            Some(Tok::Ident(name)) => {
                self.advance()?;
                Ok(name)
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn run(&mut self) -> Result<Circuit, QasmError> {
        self.header()?;
        let statements = self.lexer.source.bytes().filter(|&b| b == b';').count();
        let mut instructions = Vec::with_capacity(statements.min(MAX_RESERVED));
        while let Some(tok) = self.peeked {
            let Tok::Ident(word) = tok else {
                return Err(self.unexpected("a statement"));
            };
            match word {
                "include" => {
                    self.advance()?;
                    match self.next()? {
                        Some(Tok::Str(_)) => self.expect_punct(b';')?,
                        _ => return Err(self.unexpected("an include path string")),
                    }
                }
                "qreg" => self.register_decl(true)?,
                "creg" => self.register_decl(false)?,
                "gate" => self.skip_gate_decl()?,
                "opaque" | "barrier" => self.skip_until_semicolon()?,
                "if" => {
                    return Err(QasmError::Unexpected {
                        line: self.line,
                        found: "'if'".into(),
                        expected: "an unconditional statement (classical control is \
                                   not supported)"
                            .into(),
                    })
                }
                "measure" => {
                    self.advance()?;
                    self.measure_stmt(&mut instructions)?;
                }
                _ => self.gate_application(&mut instructions)?,
            }
        }
        Circuit::from_instructions(self.qubits, instructions).map_err(|e| QasmError::BadReference {
            line: 0,
            reference: e.to_string(),
        })
    }

    fn header(&mut self) -> Result<(), QasmError> {
        match self.next()? {
            Some(Tok::Ident("OPENQASM")) => {}
            other => {
                return Err(QasmError::UnsupportedVersion {
                    found: other.map_or("empty file".into(), |t| t.to_string()),
                })
            }
        }
        match self.next()? {
            Some(Tok::Number(v)) if (v - 2.0).abs() < 0.999 => {}
            other => {
                return Err(QasmError::UnsupportedVersion {
                    found: other.map_or("end of file".into(), |t| t.to_string()),
                })
            }
        }
        self.expect_punct(b';')
    }

    fn register_decl(&mut self, quantum: bool) -> Result<(), QasmError> {
        let line = self.line;
        self.advance()?; // qreg / creg
        let name = self.expect_ident()?;
        self.expect_punct(b'[')?;
        let size = match self.next()? {
            Some(Tok::Number(v)) if v >= 1.0 && v.fract() == 0.0 => v,
            _ => return Err(self.unexpected("a positive register size")),
        };
        self.expect_punct(b']')?;
        self.expect_punct(b';')?;
        // In f64: a size such as 1e300 has no usize value.
        let taken = if quantum { self.qubits } else { 0 };
        if taken as f64 + size > MAX_QUBITS as f64 {
            return Err(QasmError::TooWide {
                line,
                register: name.into(),
                quantum,
                max: MAX_QUBITS,
            });
        }
        let size = size as usize;
        if quantum {
            self.qregs.push(Register {
                name,
                offset: self.qubits,
                size,
            });
            self.qubits += size;
        } else {
            self.cregs.push((name, size));
        }
        Ok(())
    }

    fn skip_gate_decl(&mut self) -> Result<(), QasmError> {
        self.advance()?; // gate
        let name = self.expect_ident()?;
        self.declared_gates.push(name);
        let mut depth = 0usize;
        loop {
            let Some(tok) = self.peeked else {
                return Err(self.unexpected("'}' closing the gate body"));
            };
            if tok == Tok::Punct(b'}') && depth == 0 {
                return Err(self.unexpected("'{' opening the gate body"));
            }
            self.advance()?;
            match tok {
                Tok::Punct(b'{') => depth += 1,
                Tok::Punct(b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
    }

    fn skip_until_semicolon(&mut self) -> Result<(), QasmError> {
        loop {
            match self.next()? {
                Some(Tok::Punct(b';')) => return Ok(()),
                Some(_) => {}
                None => return Err(self.unexpected("';'")),
            }
        }
    }

    fn measure_stmt(&mut self, out: &mut Vec<Instruction>) -> Result<(), QasmError> {
        let qarg = self.qubit_arg()?;
        match self.next()? {
            Some(Tok::Arrow) => {}
            _ => return Err(self.unexpected("'->'")),
        }
        // Classical target: validate the reference, then discard (the IR
        // keeps measurement results implicitly aligned with qubits).
        let cname = self.expect_ident()?;
        let Some(&(_, creg_size)) = self.cregs.iter().find(|(name, _)| *name == cname) else {
            return Err(QasmError::BadReference {
                line: self.line,
                reference: format!("classical register '{cname}'"),
            });
        };
        if self.peek_punct(b'[') {
            self.advance()?;
            match self.next()? {
                Some(Tok::Number(v)) if index_below(v, creg_size).is_some() => {}
                _ => {
                    return Err(QasmError::BadReference {
                        line: self.line,
                        reference: format!("bit index into '{cname}[{creg_size}]'"),
                    })
                }
            }
            self.expect_punct(b']')?;
        }
        self.expect_punct(b';')?;
        let (first, count) = match qarg {
            QubitArg::One(q) => (q, 1),
            QubitArg::Whole(offset, size) => (offset, size),
        };
        out.extend(
            (first..first + count).map(|q| Instruction::new(Gate::Measure, &[Qubit::new(q)])),
        );
        Ok(())
    }

    fn gate_application(&mut self, out: &mut Vec<Instruction>) -> Result<(), QasmError> {
        let line = self.line;
        let name = self.expect_ident()?;
        let mut params = Slots::new(0.0);
        if self.peek_punct(b'(') {
            self.advance()?;
            if !self.peek_punct(b')') {
                loop {
                    params.push(self.expression()?);
                    if !self.peek_punct(b',') {
                        break;
                    }
                    self.advance()?;
                }
            }
            self.expect_punct(b')')?;
        }
        // A whole-register argument is valid only as the one argument of a
        // one-qubit gate (a broadcast); it is counted, and kept aside.
        let mut operands = Slots::new(Qubit::default());
        let mut whole = None;
        loop {
            match self.qubit_arg()? {
                QubitArg::One(q) => operands.push(Qubit::new(q)),
                QubitArg::Whole(offset, size) => {
                    whole.get_or_insert(offset..offset + size);
                    operands.push(Qubit::default());
                }
            }
            if !self.peek_punct(b',') {
                break;
            }
            self.advance()?;
        }
        self.expect_punct(b';')?;

        let gate = build_gate(name, &params, line, &self.declared_gates)?;
        match whole {
            Some(register) if operands.len == 1 && gate.arity() == 1 => {
                out.extend(register.map(|q| Instruction::new(gate, &[Qubit::new(q)])));
                return Ok(());
            }
            Some(_) => {
                return Err(QasmError::Unexpected {
                    line,
                    found: "a whole-register argument".into(),
                    expected: "indexed qubits for a multi-qubit gate".into(),
                })
            }
            None => {}
        }
        let qubits = match operands.get() {
            Some(qubits) if qubits.len() == gate.arity() => qubits,
            _ => {
                return Err(QasmError::WrongArity {
                    line,
                    name: name.into(),
                    expected: gate.arity(),
                    found: operands.len,
                })
            }
        };
        if let Some(i) = (1..qubits.len()).find(|&i| qubits[..i].contains(&qubits[i])) {
            return Err(QasmError::RepeatedQubit {
                line,
                name: name.into(),
                qubit: self.describe_qubit(qubits[i].index()),
            });
        }
        out.push(Instruction::new(gate, qubits));
        Ok(())
    }

    /// Spells flattened qubit `q` as `register[index]`.
    fn describe_qubit(&self, q: usize) -> String {
        let reg = self
            .qregs
            .iter()
            .find(|r| q < r.offset + r.size)
            .expect("operands index declared registers");
        format!("{}[{}]", reg.name, q - reg.offset)
    }

    fn qubit_arg(&mut self) -> Result<QubitArg, QasmError> {
        let name = self.expect_ident()?;
        let Some(reg) = self.qregs.iter().find(|r| r.name == name) else {
            return Err(QasmError::BadReference {
                line: self.line,
                reference: format!("quantum register '{name}'"),
            });
        };
        let (offset, size) = (reg.offset, reg.size);
        if !self.peek_punct(b'[') {
            return Ok(QubitArg::Whole(offset, size));
        }
        self.advance()?;
        let idx = match self.next()?.and_then(|tok| match tok {
            Tok::Number(v) => index_below(v, size),
            _ => None,
        }) {
            Some(idx) => idx,
            None => {
                return Err(QasmError::BadReference {
                    line: self.line,
                    reference: format!("qubit index into '{name}[{size}]'"),
                })
            }
        };
        self.expect_punct(b']')?;
        Ok(QubitArg::One(offset + idx))
    }

    /// Parses a parameter expression: `+ - * /`, unary minus, parentheses,
    /// numbers, and `pi`.
    fn expression(&mut self) -> Result<f64, QasmError> {
        let mut value = self.term()?;
        loop {
            match self.peeked {
                Some(Tok::Punct(b'+')) => {
                    self.advance()?;
                    value += self.term()?;
                }
                Some(Tok::Punct(b'-')) => {
                    self.advance()?;
                    value -= self.term()?;
                }
                _ => return Ok(value),
            }
        }
    }

    fn term(&mut self) -> Result<f64, QasmError> {
        let mut value = self.factor()?;
        loop {
            match self.peeked {
                Some(Tok::Punct(b'*')) => {
                    self.advance()?;
                    value *= self.factor()?;
                }
                Some(Tok::Punct(b'/')) => {
                    self.advance()?;
                    value /= self.factor()?;
                }
                _ => return Ok(value),
            }
        }
    }

    fn factor(&mut self) -> Result<f64, QasmError> {
        match self.peeked {
            Some(Tok::Number(v)) => {
                self.advance()?;
                Ok(v)
            }
            Some(Tok::Ident("pi")) => {
                self.advance()?;
                Ok(PI)
            }
            Some(Tok::Punct(c @ (b'-' | b'('))) => {
                if self.depth == MAX_NESTING {
                    let expected =
                        format!("a parameter expression nested at most {MAX_NESTING} deep");
                    return Err(self.unexpected(&expected));
                }
                self.depth += 1;
                self.advance()?;
                let value = if c == b'-' {
                    -self.factor()?
                } else {
                    let value = self.expression()?;
                    self.expect_punct(b')')?;
                    value
                };
                self.depth -= 1;
                Ok(value)
            }
            _ => Err(self.unexpected("a parameter expression")),
        }
    }
}

/// Maps a QASM gate name and parameters to an IR gate.
fn build_gate(
    name: &str,
    params: &Slots<f64>,
    line: usize,
    declared: &[&str],
) -> Result<Gate, QasmError> {
    let exactly = |expected: usize| match params.get() {
        Some(values) if values.len() == expected => Ok(values),
        _ => Err(QasmError::WrongArity {
            line,
            name: name.to_string(),
            expected,
            found: params.len,
        }),
    };
    let fixed = |gate: Gate| exactly(0).map(|_| gate);
    let one_param = |f: fn(f64) -> Gate| exactly(1).map(|p| f(p[0]));
    match name {
        "id" => fixed(Gate::I),
        "h" => fixed(Gate::H),
        "x" => fixed(Gate::X),
        "y" => fixed(Gate::Y),
        "z" => fixed(Gate::Z),
        "s" => fixed(Gate::S),
        "sdg" => fixed(Gate::Sdg),
        "t" => fixed(Gate::T),
        "tdg" => fixed(Gate::Tdg),
        "sx" => fixed(Gate::Sx),
        "sxdg" => fixed(Gate::Sxdg),
        "rx" => one_param(Gate::Rx),
        "ry" => one_param(Gate::Ry),
        "rz" => one_param(Gate::Rz),
        "u1" | "p" => one_param(Gate::U1),
        "u2" => exactly(2).map(|p| Gate::U2(p[0], p[1])),
        "u3" | "u" => exactly(3).map(|p| Gate::U3(p[0], p[1], p[2])),
        "xpow" => one_param(Gate::Xpow),
        "cxpow" => one_param(Gate::Cxpow),
        "cx" | "CX" => fixed(Gate::Cx),
        "cz" => fixed(Gate::Cz),
        "cp" | "cu1" => one_param(Gate::Cp),
        "swap" => fixed(Gate::Swap),
        "ccx" => fixed(Gate::Ccx),
        "ccz" => fixed(Gate::Ccz),
        "cswap" => fixed(Gate::Cswap),
        _ => Err(QasmError::UnknownGate {
            line,
            name: if declared.contains(&name) {
                format!("{name} (declared in-file, but custom gate bodies are not expanded)")
            } else {
                name.to_string()
            },
        }),
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit;
    use proptest::prelude::*;
    use proptest::sample::Index;
    use std::sync::OnceLock;
    use trios_benchmarks::{Benchmark, ExtendedBenchmark};
    use trios_gen::Family;

    #[test]
    fn parses_minimal_program() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            h q[0];
            cx q[0], q[1];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.instructions()[0].gate(), Gate::H);
        assert_eq!(c.instructions()[1].gate(), Gate::Cx);
    }

    #[test]
    fn flattens_multiple_registers() {
        let src = "OPENQASM 2.0; qreg a[2]; qreg b[3]; cx a[1], b[0];";
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits(), 5);
        let i = c.instructions()[0];
        assert_eq!(i.qubit(0).index(), 1);
        assert_eq!(i.qubit(1).index(), 2);
    }

    #[test]
    fn broadcasts_single_qubit_gates_over_registers() {
        let src = "OPENQASM 2.0; qreg q[3]; h q;";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|i| i.gate() == Gate::H));
    }

    #[test]
    fn broadcast_measure() {
        let src = "OPENQASM 2.0; qreg q[2]; creg c[2]; measure q -> c;";
        let c = parse(src).unwrap();
        assert_eq!(c.counts().measure, 2);
    }

    #[test]
    fn evaluates_parameter_expressions() {
        let src = "OPENQASM 2.0; qreg q[1]; rz(pi/2) q[0]; rz(-pi) q[0]; rz(2*(1+1)) q[0];";
        let c = parse(src).unwrap();
        let angles: Vec<f64> = c
            .iter()
            .map(|i| match i.gate() {
                Gate::Rz(a) => a,
                _ => unreachable!(),
            })
            .collect();
        assert!((angles[0] - PI / 2.0).abs() < 1e-15);
        assert!((angles[1] + PI).abs() < 1e-15);
        assert!((angles[2] - 4.0).abs() < 1e-15);
    }

    #[test]
    fn skips_gate_declarations_and_barriers() {
        let src = r#"
            OPENQASM 2.0;
            gate majority a, b, c { cx c, b; cx c, a; ccx a, b, c; }
            qreg q[3];
            barrier q;
            ccx q[0], q[1], q[2];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.instructions()[0].gate(), Gate::Ccx);
    }

    #[test]
    fn rejects_unknown_gates_and_undeclared_custom_bodies() {
        let src = "OPENQASM 2.0; qreg q[1]; frob q[0];";
        assert!(matches!(
            parse(src).unwrap_err(),
            QasmError::UnknownGate { name, .. } if name == "frob"
        ));
        let src = "OPENQASM 2.0; gate foo a { h a; } qreg q[1]; foo q[0];";
        assert!(matches!(
            parse(src).unwrap_err(),
            QasmError::UnknownGate { name, .. } if name.starts_with("foo")
        ));
    }

    #[test]
    fn rejects_bad_version() {
        assert!(matches!(
            parse("OPENQASM 3.0; qreg q[1];").unwrap_err(),
            QasmError::UnsupportedVersion { .. }
        ));
        assert!(matches!(
            parse("qreg q[1];").unwrap_err(),
            QasmError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn rejects_out_of_range_indices() {
        assert!(matches!(
            parse("OPENQASM 2.0; qreg q[2]; h q[5];").unwrap_err(),
            QasmError::BadReference { .. }
        ));
        assert!(matches!(
            parse("OPENQASM 2.0; qreg q[2]; cx q[0], r[0];").unwrap_err(),
            QasmError::BadReference { .. }
        ));
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(matches!(
            parse("OPENQASM 2.0; qreg q[3]; cx q[0], q[1], q[2];").unwrap_err(),
            QasmError::WrongArity { .. }
        ));
        assert!(matches!(
            parse("OPENQASM 2.0; qreg q[1]; rz q[0];").unwrap_err(),
            QasmError::WrongArity { .. }
        ));
    }

    #[test]
    fn rejects_classical_control() {
        let src = "OPENQASM 2.0; qreg q[1]; creg c[1]; if (c == 1) x q[0];";
        assert!(parse(src).is_err());
    }

    #[test]
    fn measure_validates_classical_target() {
        let src = "OPENQASM 2.0; qreg q[1]; measure q[0] -> c[0];";
        assert!(matches!(
            parse(src).unwrap_err(),
            QasmError::BadReference { .. }
        ));
    }

    #[test]
    fn expressions_nest_to_the_cap_and_no_deeper() {
        let nested = |depth: usize| {
            format!(
                "OPENQASM 2.0; qreg q[1]; rz({}pi{}) q[0];",
                "(-".repeat(depth / 2),
                ")".repeat(depth / 2)
            )
        };
        let c = parse(&nested(MAX_NESTING)).unwrap();
        assert_eq!(c.instructions()[0].gate(), Gate::Rz(PI));
        assert_eq!(
            parse(&nested(MAX_NESTING + 2)).unwrap_err().to_string(),
            "line 1: expected a parameter expression nested at most 256 deep, found '('"
        );
    }

    /// Both parsers' answers in a form compared exactly: `{:?}` prints
    /// every gate parameter to the bit and every error's variant, line
    /// and text.
    fn outcome(result: Result<Circuit, QasmError>) -> String {
        format!("{result:?}")
    }

    /// The reference parser's answer, or `None` where it panics.
    fn reference_outcome(source: &str) -> Option<String> {
        std::panic::catch_unwind(|| reference::parse(source))
            .ok()
            .map(outcome)
    }

    /// Every grammar feature the emitter never writes: comments,
    /// broadcasts, barriers, `opaque`, nested gate bodies, parameter
    /// arithmetic, several registers and non-ASCII whitespace.
    const KITCHEN_SINK: &str = "// kitchen sink\nOPENQASM 2.0;\ninclude \"qelib1.inc\";\n\
        qreg a[2];\nqreg b[3];\ncreg c[5];\nopaque magic(t) x, y;\n\
        gate maj a, b, c { cx c, b; { cx c, a; } ccx a, b, c; }\n\
        h a;\nbarrier a, b;\nrz(-(pi/2) + 3*(1.5e-1 - .25)/-2) b[2];\n\
        u3(1, 2E+1, -pi) a[1];\u{a0}cu1(pi / 4) a[0], b[1];\n\
        u(0.5, 0, pi) b[0];\nCX a[1], b[0];\nmeasure a -> c;\nmeasure b[2] -> c[4];\n";

    /// Emitted QASM of the paper suite (Table 1), the extended suite and
    /// generated circuits of every family (each also measured), the
    /// example programs, and [`KITCHEN_SINK`].
    fn corpus() -> &'static [String] {
        static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
        CORPUS.get_or_init(|| {
            let mut circuits: Vec<Circuit> = Benchmark::ALL.iter().map(|b| b.build()).collect();
            circuits.extend(ExtendedBenchmark::ALL.iter().map(|b| b.build()));
            for family in Family::ALL {
                circuits.extend((0..3).map(|seed| family.generate_case(seed).circuit));
            }
            let mut sources: Vec<String> = circuits
                .into_iter()
                .flat_map(|mut c| {
                    let plain = emit(&c);
                    c.measure_all();
                    [plain, emit(&c)]
                })
                .collect();
            let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/qasm");
            let mut files: Vec<_> = std::fs::read_dir(examples)
                .expect("examples/qasm")
                .map(|entry| entry.unwrap().path())
                .collect();
            files.sort();
            assert!(files.len() >= 5, "{files:?}");
            sources.extend(files.iter().map(|f| std::fs::read_to_string(f).unwrap()));
            sources.push(KITCHEN_SINK.to_string());
            sources
        })
    }

    #[test]
    fn every_corpus_program_parses_to_the_reference_circuit() {
        for source in corpus() {
            let parsed = parse(source);
            assert!(parsed.is_ok(), "{parsed:?}\n{source}");
            assert_eq!(Some(outcome(parsed)), reference_outcome(source), "{source}");
        }
    }

    /// Bytes the mutations insert or write: QASM punctuation, digits,
    /// letters, whitespace and line breaks, and the UTF-8 of non-ASCII
    /// chars (a no-break space and a line separator, which are
    /// whitespace, and an accented letter), plus two bytes that are no
    /// UTF-8 on their own and decode to U+FFFD.
    const PIECES: [&[u8]; 32] = [
        b";",
        b",",
        b"(",
        b")",
        b"[",
        b"]",
        b"{",
        b"}",
        b"-",
        b">",
        b"+",
        b"*",
        b"/",
        b"\"",
        b".",
        b"e",
        b"0",
        b"1",
        b"5",
        b"9",
        b"99999",
        b"q",
        b"x",
        b"_",
        b" ",
        b"\n",
        b"//",
        b"\xc2\xa0",
        b"\xe2\x80\xa8",
        b"\xc3\xa9",
        b"\x80",
        b"\xff",
    ];

    /// Applies `(kind, position, piece)` edits: insert the piece, delete
    /// the byte, or replace the byte with the piece.
    fn mutate(source: &str, edits: &[(u8, Index, usize)]) -> String {
        let mut bytes = source.as_bytes().to_vec();
        for &(kind, at, piece) in edits {
            let piece = PIECES[piece];
            match kind {
                0 => {
                    let at = at.index(bytes.len() + 1);
                    bytes.splice(at..at, piece.iter().copied());
                }
                _ if bytes.is_empty() => {}
                1 => {
                    bytes.remove(at.index(bytes.len()));
                }
                _ => {
                    let at = at.index(bytes.len());
                    bytes.splice(at..=at, piece.iter().copied());
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fuzz check for hostile text: mutated programs never panic
        /// the parser, and it answers exactly as the reference does
        /// wherever the reference neither panics nor passes the width cap.
        #[test]
        fn byte_mutations_parse_like_the_reference(
            pick in any::<Index>(),
            edits in proptest::collection::vec((0u8..3, any::<Index>(), 0usize..PIECES.len()), 1..5),
        ) {
            let source = mutate(&corpus()[pick.index(corpus().len())], &edits);
            let parsed = parse(&source);
            if matches!(parsed, Err(QasmError::TooWide { .. })) {
                return Ok(());
            }
            match reference_outcome(&source) {
                Some(expected) => {
                    let parsed = outcome(parsed);
                    prop_assert!(parsed == expected, "{}\n  vs {}\n{}", parsed, expected, source);
                }
                // The reference panics on a repeated operand and on a gate
                // body closed before it opens; both are errors now.
                None => prop_assert!(parsed.is_err(), "{:?}\n{}", parsed, source),
            }
        }

        #[test]
        fn printable_garbage_parses_like_the_reference(
            body in "\\PC{0,200}",
            header in any::<bool>(),
        ) {
            let source = if header { format!("OPENQASM 2.0;\n{body}") } else { body };
            let parsed = parse(&source);
            if let Some(expected) = reference_outcome(&source) {
                let parsed = outcome(parsed);
                prop_assert!(parsed == expected, "{}\n  vs {}\n{}", parsed, expected, source);
            }
        }

        /// Statements the emitter never writes, well-formed or not, in
        /// random order: broadcasts to multi-qubit gates, operand and
        /// parameter lists of every length, stray braces.
        #[test]
        fn statement_soup_parses_like_the_reference(
            statements in proptest::collection::vec(0usize..SOUP.len(), 0..14),
        ) {
            let body: Vec<&str> = statements.iter().map(|&i| SOUP[i]).collect();
            let source = format!("OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n{}", body.join("\n"));
            let parsed = parse(&source);
            match reference_outcome(&source) {
                Some(expected) => {
                    let parsed = outcome(parsed);
                    prop_assert!(parsed == expected, "{}\n  vs {}\n{}", parsed, expected, source);
                }
                None => prop_assert!(parsed.is_err(), "{:?}\n{}", parsed, source),
            }
        }
    }

    /// Fragments for [`statement_soup_parses_like_the_reference`].
    const SOUP: [&str; 36] = [
        "h q;",
        "cx q;",
        "h q, q[1];",
        "cx q[0], q;",
        "ccx q[0], q[1];",
        "cx q[0], q[1], q[2], q[0];",
        "u3(1, 2) q;",
        "u3(1, 2, 3, 4, 5) q[0];",
        "rz() q[0];",
        "rz(pi, pi) q[1];",
        "cx q[1], q[1];",
        "cswap q[2], q[0], q[2];",
        "measure q -> c;",
        "measure q[1] -> c[2];",
        "measure q -> d;",
        "measure q[0] c[0];",
        "barrier q[0], q;",
        "opaque o(t) a, b;",
        "gate g(t) a { u1(t) a; }",
        "g(1) q[0];",
        "gate h2 a }",
        "{",
        "}",
        "qreg r[2];",
        "creg d[1];",
        "cx r[1], q[2];",
        "x r;",
        "include \"qelib1.inc\";",
        "include 5;",
        "if (c == 1) x q[0];",
        "rz(-(-(1))) q[0];",
        "rz(2 * pi / -4 + 1) r[0];",
        "h q[3];",
        "qreg q[2];",
        "CX q[0], q[2];",
        "id q[2]",
    ];
}
