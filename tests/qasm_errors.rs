//! Malformed-QASM corpus: every broken input must surface as the
//! *specific* [`QasmError`] variant describing it — never a panic, and
//! never a misleading catch-all. This is the parser half of the
//! adversarial-input story: the fuzz harness feeds the compiler
//! generated circuits, and this corpus feeds the front end generated
//! garbage.

use orchestrated_trios::qasm::{parse, QasmError};

#[test]
fn truncated_headers_are_unsupported_version_errors() {
    for source in [
        "",
        "OPENQASM",
        "OPENQASM;",
        "qreg q[2];",
        "// only a comment\n",
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::UnsupportedVersion { .. })),
            "source {source:?} should be UnsupportedVersion, got {:?}",
            parse(source)
        );
    }
    // A wrong version number is also an UnsupportedVersion, and the
    // message names what was found.
    let err = parse("OPENQASM 3.0;\nqreg q[2];").unwrap_err();
    assert!(matches!(err, QasmError::UnsupportedVersion { .. }));
    assert!(err.to_string().contains('3'), "{err}");
}

#[test]
fn truncated_statements_are_unexpected_token_errors() {
    for source in [
        "OPENQASM 2.0;\nqreg q[2",              // register never closed
        "OPENQASM 2.0;\nqreg q[2;",             // missing ']'
        "OPENQASM 2.0;\nqreg q[2]; h q[0]",     // missing ';'
        "OPENQASM 2.0;\ninclude",               // include without a path
        "OPENQASM 2.0;\nqreg q[1]; rz( q[0];",  // unclosed parameter list
        "OPENQASM 2.0;\ngate foo a { h a;",     // gate body never closed
        "OPENQASM 2.0;\nqreg q[1]; \"dangling", // unterminated string
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::Unexpected { .. })),
            "source {source:?} should be Unexpected, got {:?}",
            parse(source)
        );
    }
}

#[test]
fn unexpected_errors_carry_line_numbers() {
    let source = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1\n";
    match parse(source).unwrap_err() {
        QasmError::Unexpected { line, .. } => {
            assert_eq!(line, 4, "error should point at the broken line")
        }
        other => panic!("expected Unexpected, got {other:?}"),
    }
}

#[test]
fn unknown_gates_name_the_offender() {
    let err = parse("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];").unwrap_err();
    match &err {
        QasmError::UnknownGate { line, name } => {
            assert_eq!(*line, 3);
            assert_eq!(name, "frobnicate");
        }
        other => panic!("expected UnknownGate, got {other:?}"),
    }
    // A gate declared in-file but applied is still unknown (bodies are
    // not expanded), and the message says so.
    let err = parse("OPENQASM 2.0;\ngate foo a { h a; }\nqreg q[1];\nfoo q[0];").unwrap_err();
    match &err {
        QasmError::UnknownGate { name, .. } => {
            assert!(name.contains("declared in-file"), "{name}")
        }
        other => panic!("expected UnknownGate, got {other:?}"),
    }
}

#[test]
fn bad_register_indices_are_bad_references() {
    for source in [
        "OPENQASM 2.0;\nqreg q[2];\nh q[2];",        // index == size
        "OPENQASM 2.0;\nqreg q[2];\nh q[99];",       // far out of range
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0], r[0];", // undeclared register
        "OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> c[0];", // undeclared creg
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[5];", // creg index
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::BadReference { .. })),
            "source {source:?} should be BadReference, got {:?}",
            parse(source)
        );
    }
    // The reference description names the register.
    let err = parse("OPENQASM 2.0;\nqreg q[2];\ncx q[0], r[0];").unwrap_err();
    assert!(err.to_string().contains("'r'"), "{err}");
}

#[test]
fn arity_mismatches_are_wrong_arity_errors() {
    for source in [
        "OPENQASM 2.0;\nqreg q[3];\ncx q[0], q[1], q[2];", // too many qubits
        "OPENQASM 2.0;\nqreg q[3];\nccx q[0], q[1];",      // too few qubits
        "OPENQASM 2.0;\nqreg q[1];\nrz q[0];",             // missing parameter
        "OPENQASM 2.0;\nqreg q[1];\nh(0.5) q[0];",         // spurious parameter
        "OPENQASM 2.0;\nqreg q[1];\nu3(1.0, 2.0) q[0];",   // wrong param count
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::WrongArity { .. })),
            "source {source:?} should be WrongArity, got {:?}",
            parse(source)
        );
    }
    let err = parse("OPENQASM 2.0;\nqreg q[3];\nccx q[0], q[1];").unwrap_err();
    match err {
        QasmError::WrongArity {
            line,
            name,
            expected,
            found,
        } => {
            assert_eq!((line, name.as_str(), expected, found), (3, "ccx", 3, 2));
        }
        other => panic!("expected WrongArity, got {other:?}"),
    }
}

#[test]
fn duplicate_register_names_shadow_consistently_or_error() {
    // Two qregs with the same name: the parser keeps both declarations in
    // one flattened index space and resolves references to the first
    // match, so indices past the first register's size are BadReference —
    // pinned here so a future rewrite fails loudly if it changes.
    let source = "OPENQASM 2.0;\nqreg q[2];\nqreg q[2];\nh q[3];";
    assert!(
        matches!(parse(source), Err(QasmError::BadReference { .. })),
        "got {:?}",
        parse(source)
    );
    // In-range references to the shadowed name still parse.
    let ok = parse("OPENQASM 2.0;\nqreg q[2];\nqreg q[2];\nh q[1];").unwrap();
    assert_eq!(ok.num_qubits(), 4, "both registers occupy the index space");
}

#[test]
fn classical_control_and_degenerate_registers_are_rejected() {
    assert!(matches!(
        parse("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) x q[0];"),
        Err(QasmError::Unexpected { .. })
    ));
    for source in [
        "OPENQASM 2.0;\nqreg q[0];",   // zero-size register
        "OPENQASM 2.0;\nqreg q[-1];",  // negative size
        "OPENQASM 2.0;\nqreg q[1.5];", // fractional size
    ] {
        assert!(
            matches!(parse(source), Err(QasmError::Unexpected { .. })),
            "source {source:?} should be Unexpected, got {:?}",
            parse(source)
        );
    }
}

#[test]
fn error_displays_are_informative() {
    // Every variant's Display carries the line and enough context to fix
    // the file without reading parser source.
    let cases: Vec<(&str, &str)> = vec![
        ("OPENQASM 2.0;\nqreg q[2];\nh q[9];", "line 3"),
        ("OPENQASM 2.0;\nqreg q[1];\nmystery q[0];", "mystery"),
        ("OPENQASM 2.0;\nqreg q[1];\nrz q[0];", "rz"),
        ("OPENQASM 2.0;\nqreg q[2", "expected"),
    ];
    for (source, needle) in cases {
        let message = parse(source).unwrap_err().to_string();
        assert!(message.contains(needle), "{source:?} -> {message}");
    }
}

#[test]
fn hostile_programs_are_typed_errors() {
    // Unchecked, a repeated operand and a gate body closed before it
    // opens panic the parser, and a register past the cap parses into a
    // circuit whose compile asks for petabytes and aborts the process.
    let repeated = parse("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];").unwrap_err();
    assert_eq!(
        repeated,
        QasmError::RepeatedQubit {
            line: 3,
            name: "cx".into(),
            qubit: "q[0]".into(),
        }
    );
    // Operands name their register: flattened indices are not shown.
    let err = parse("OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\nccx b[0], a[1], b[0];").unwrap_err();
    assert_eq!(
        err.to_string(),
        "line 4: gate 'ccx' names qubit b[0] more than once"
    );
    let unopened = parse("OPENQASM 2.0;\ngate foo a } h a;").unwrap_err();
    assert_eq!(
        unopened,
        QasmError::Unexpected {
            line: 2,
            found: "'}'".into(),
            expected: "'{' opening the gate body".into(),
        }
    );
    for size in ["1000000000000000", "1e300", "4097"] {
        let err = parse(&format!("OPENQASM 2.0;\nqreg q[{size}];")).unwrap_err();
        assert_eq!(
            err,
            QasmError::TooWide {
                line: 2,
                register: "q".into(),
                quantum: true,
                max: 4096,
            },
            "qreg q[{size}]"
        );
        assert!(err.to_string().contains("4096-qubit cap"), "{err}");
    }
}

#[test]
fn the_width_cap_is_the_device_cap_and_counts_every_register() {
    assert_eq!(
        orchestrated_trios::qasm::MAX_QUBITS,
        orchestrated_trios::topology::MAX_SPEC_QUBITS
    );
    let full = parse("OPENQASM 2.0;\nqreg q[4096];\ncreg c[4096];\nh q;").unwrap();
    assert_eq!((full.num_qubits(), full.len()), (4096, 4096));
    // The quantum registers are capped together, classical ones singly.
    assert!(matches!(
        parse("OPENQASM 2.0;\nqreg a[4000];\nqreg b[97];"),
        Err(QasmError::TooWide {
            line: 3,
            quantum: true,
            ..
        })
    ));
    assert!(parse("OPENQASM 2.0;\ncreg c[4096];\ncreg d[4096];").is_ok());
    let err = parse("OPENQASM 2.0;\ncreg c[4097];").unwrap_err();
    assert!(matches!(err, QasmError::TooWide { quantum: false, .. }));
    assert!(err.to_string().contains("4096-bit cap"), "{err}");
}

#[test]
fn deeply_nested_parameters_are_an_error_not_a_stack_overflow() {
    let depth = 100_000;
    let source = format!(
        "OPENQASM 2.0;\nqreg q[1];\nrz({}1{}) q[0];",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let err = parse(&source).unwrap_err();
    assert!(
        matches!(&err, QasmError::Unexpected { line: 3, expected, .. } if expected.contains("256 deep")),
        "{err}"
    );
    let negated = format!(
        "OPENQASM 2.0;\nqreg q[1];\nrz({}pi) q[0];",
        "-".repeat(depth)
    );
    assert!(matches!(
        parse(&negated),
        Err(QasmError::Unexpected { line: 3, .. })
    ));
}

#[test]
fn shrunk_finds_of_the_byte_mutation_fuzz_are_typed_errors() {
    // Shrunk from the parser's byte-mutation test, where the reference
    // parser panics on both. First, the emitted `ccz` declaration with
    // its `{` deleted.
    let source = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\
                  gate ccz a, b, c  h c; ccx a, b, c; h c; }\nqreg q[3];\n";
    assert_eq!(
        parse(source).unwrap_err(),
        QasmError::Unexpected {
            line: 3,
            found: "'}'".into(),
            expected: "'{' opening the gate body".into(),
        }
    );
    // An emitted Toffoli with one index digit replaced.
    let source = "OPENQASM 2.0;\nqreg q[6];\nccx q[4], q[5], q[4];\n";
    assert_eq!(
        parse(source).unwrap_err().to_string(),
        "line 3: gate 'ccx' names qubit q[4] more than once"
    );
}
