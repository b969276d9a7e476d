//! Test-only mutations of one JSON line, for checking a decoder against
//! its reference on inputs near the valid ones: whitespace, truncation,
//! respelled numbers, and dropped, duplicated, reordered or retyped
//! fields and array cells at every depth.

// Each crate that mounts this file uses a different part of it.
#![allow(dead_code)]

use super::tree::{parse, JsonValue};

/// Values of every type, for retyping a field or a cell. None is an
/// integer beyond 2^53, where the integer rule changed the reading.
fn replacements() -> Vec<JsonValue> {
    vec![
        JsonValue::Null,
        JsonValue::str("x"),
        JsonValue::str("hbm"),
        JsonValue::num(1.5),
        JsonValue::num(-1.0),
        JsonValue::num(0.0),
        JsonValue::num(4096.0),
        JsonValue::Array(vec![]),
        JsonValue::Array(vec![JsonValue::str("dram"), JsonValue::num(1.0)]),
        JsonValue::Object(vec![]),
    ]
}

/// The number of objects and arrays in `v`, counted in pre-order.
fn containers(v: &JsonValue) -> usize {
    match v {
        JsonValue::Array(items) => 1 + items.iter().map(containers).sum::<usize>(),
        JsonValue::Object(fields) => 1 + fields.iter().map(|(_, v)| containers(v)).sum::<usize>(),
        _ => 0,
    }
}

/// The `n`th container of `v` in pre-order.
fn nth<'v>(v: &'v mut JsonValue, n: &mut usize) -> Option<&'v mut JsonValue> {
    if !matches!(v, JsonValue::Array(_) | JsonValue::Object(_)) {
        return None;
    }
    if *n == 0 {
        return Some(v);
    }
    *n -= 1;
    match v {
        JsonValue::Array(items) => items.iter_mut().find_map(|c| nth(c, n)),
        JsonValue::Object(fields) => fields.iter_mut().find_map(|(_, c)| nth(c, n)),
        _ => None,
    }
}

/// Every structural mutation of `line`'s value, rendered.
fn structural(line: &str) -> Vec<String> {
    let Ok(root) = parse(line) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for k in 0..containers(&root) {
        let len = match nth(&mut root.clone(), &mut { k }) {
            Some(JsonValue::Array(items)) => items.len(),
            Some(JsonValue::Object(fields)) => fields.len(),
            _ => 0,
        };
        let mut edit = |f: &mut dyn FnMut(&mut JsonValue)| {
            let mut v = root.clone();
            if let Some(c) = nth(&mut v, &mut { k }) {
                f(c);
            }
            out.push(v.render());
        };
        for i in 0..len {
            edit(&mut |c| match c {
                JsonValue::Array(items) => {
                    items.remove(i);
                }
                JsonValue::Object(fields) => {
                    fields.remove(i);
                }
                _ => {}
            });
            if i + 1 < len {
                edit(&mut |c| match c {
                    JsonValue::Array(items) => items.swap(i, i + 1),
                    JsonValue::Object(fields) => fields.swap(i, i + 1),
                    _ => {}
                });
            }
            for r in replacements() {
                edit(&mut |c| match c {
                    JsonValue::Array(items) => items[i] = r.clone(),
                    JsonValue::Object(fields) => fields[i].1 = r.clone(),
                    _ => {}
                });
                // A duplicate key after the original loses; one before
                // it wins.
                edit(&mut |c| {
                    if let JsonValue::Object(fields) = c {
                        fields.push((fields[i].0.clone(), r.clone()));
                    }
                });
                edit(&mut |c| {
                    if let JsonValue::Object(fields) = c {
                        fields.insert(0, (fields[i].0.clone(), r.clone()));
                    }
                });
            }
        }
        edit(&mut |c| {
            if let JsonValue::Array(items) = c {
                items.push(JsonValue::Null);
            }
        });
    }
    out
}

/// `line` with its `n`th number token respelled by `respell`, or
/// `None` when it has fewer numbers. Tokens inside strings are skipped.
fn respell_number(line: &str, n: usize, respell: fn(&str) -> String) -> Option<String> {
    let bytes = line.as_bytes();
    let (mut i, mut seen, mut in_str) = (0, 0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            match b {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
        } else if b == b'"' {
            in_str = true;
        } else if b.is_ascii_digit() {
            let end = i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
            if seen == n {
                return Some(format!("{}{}{}", &line[..i], respell(&line[i..end]), &line[end..]));
            }
            seen += 1;
            i = end;
            continue;
        }
        i += 1;
    }
    None
}

/// Every mutation of `line`: its structural mutations, each number
/// respelled as `4096.0`, `4.096e3` and `4096e0`, whitespace inserted
/// at every character boundary, and every truncation.
pub fn mutations(line: &str) -> Vec<String> {
    let mut out = structural(line);
    let spellings: [fn(&str) -> String; 3] = [
        |d| format!("{d}.0"),
        |d| format!("{:e}", d.parse::<f64>().expect("digits")),
        |d| format!("{d}e0"),
    ];
    for n in 0.. {
        let Some(first) = respell_number(line, n, spellings[0]) else {
            break;
        };
        out.push(first);
        out.extend(spellings[1..].iter().filter_map(|&s| respell_number(line, n, s)));
    }
    let spaces = [" ", "\t", "\n", "\r", "\x0c", "\x0b"];
    for (k, (i, _)) in line.char_indices().enumerate() {
        out.push(format!("{}{}{}", &line[..i], spaces[k % spaces.len()], &line[i..]));
        out.push(line[..i].to_string());
    }
    out
}
