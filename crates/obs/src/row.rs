//! One field list per artifact row.
//!
//! [`artifact_row!`](crate::artifact_row) renders a row struct from a
//! single list of its fields: the list destructures the struct without
//! `..`, and each column name is the field identifier itself. A field
//! added to, removed from or renamed in the struct therefore fails to
//! compile until the list follows, instead of drifting from a header
//! constant or a hand-written renderer. (rustc reports a struct field
//! missing from the list as "pattern requires `..` due to inaccessible
//! fields" at the invocation: the fix is to list the field, not to add
//! `..`.)
//!
//! Each entry is `field`, optionally followed by `: "fmt"` (the cell's
//! format spec, default `"{}"`) and `=> expr` (the cell's value, default
//! the bound field; any `Display`). Three forms:
//!
//! ```
//! # use spider_obs::{artifact_row, OrElse};
//! struct Row { id: u32, share: f64, channel: Option<u32> }
//! let row = Row { id: 7, share: 0.25, channel: None };
//!
//! const HEADER: &str =
//!     artifact_row!(header: Row { id, share: "{:.2}", channel => OrElse(*channel, "") });
//! assert_eq!(HEADER, "id,share,channel");
//!
//! let mut csv = String::new();
//! artifact_row!(csv(csv, &row): Row { id, share: "{:.2}", channel => OrElse(*channel, "") });
//! assert_eq!(csv, "7,0.25,");
//!
//! let mut json = String::new();
//! artifact_row!(json(json, &row): Row { id, share: "{:.2}", channel => OrElse(*channel, "null") });
//! assert_eq!(json, r#"{"id":7,"share":0.25,"channel":null}"#);
//! ```
//!
//! The `csv` and `json` forms build their whole format string at compile
//! time and append the row to the `String` `out` in one call.

use std::fmt;

/// Renders an artifact row from one field list; see the [module
/// docs](crate::row).
#[macro_export]
macro_rules! artifact_row {
    (header: $ty:ident { $f0:ident $(: $fmt0:literal)? $(=> $v0:expr)?
        $(, $f:ident $(: $fmt:literal)? $(=> $v:expr)?)* $(,)? }) => {
        concat!(stringify!($f0) $(, ",", stringify!($f))*)
    };
    (csv($out:expr, $row:expr): $ty:ident { $f0:ident $(: $fmt0:literal)? $(=> $v0:expr)?
        $(, $f:ident $(: $fmt:literal)? $(=> $v:expr)?)* $(,)? }) => {{
        let $ty { $f0 $(, $f)* } = $row;
        $crate::row::append(
            &mut $out,
            format_args!(concat!(
                $crate::artifact_row!(@fmt $($fmt0)?)
                $(, ",", $crate::artifact_row!(@fmt $($fmt)?))*
            ),
            $crate::artifact_row!(@val $f0 $($v0)?)
            $(, $crate::artifact_row!(@val $f $($v)?))*),
        )
    }};
    (json($out:expr, $row:expr): $ty:ident { $f0:ident $(: $fmt0:literal)? $(=> $v0:expr)?
        $(, $f:ident $(: $fmt:literal)? $(=> $v:expr)?)* $(,)? }) => {{
        let $ty { $f0 $(, $f)* } = $row;
        $crate::row::append(
            &mut $out,
            format_args!(concat!(
                "{{\"", stringify!($f0), "\":", $crate::artifact_row!(@fmt $($fmt0)?)
                $(, ",\"", stringify!($f), "\":", $crate::artifact_row!(@fmt $($fmt)?))*,
                "}}"
            ),
            $crate::artifact_row!(@val $f0 $($v0)?)
            $(, $crate::artifact_row!(@val $f $($v)?))*),
        )
    }};
    (@fmt) => { "{}" };
    (@fmt $fmt:literal) => { $fmt };
    (@val $f:ident) => { $f };
    (@val $f:ident $v:expr) => { $v };
}

/// Appends formatted text to `out`; the expansion target of
/// [`artifact_row!`](crate::artifact_row).
#[doc(hidden)]
pub fn append(out: &mut String, args: fmt::Arguments<'_>) {
    // `String`'s `fmt::Write` impl never returns an error.
    let _ = fmt::Write::write_fmt(out, args);
}

/// Formats `Some(v)` as `v`, honoring the cell's format spec (so
/// `"{:.4}"` applies to the inner value), and `None` as the given text:
/// `""` for an empty CSV cell, `"null"` in JSON.
pub struct OrElse<T>(pub Option<T>, pub &'static str);

impl<T: fmt::Display> fmt::Display for OrElse<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str(self.1),
        }
    }
}
