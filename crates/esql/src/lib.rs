//! # eve-esql
//!
//! E-SQL (*Evolvable SQL*, paper §3.1) — SQL SELECT-FROM-WHERE view
//! definitions extended with **evolution preferences** that tell the EVE
//! system what may be dropped or replaced when underlying information
//! sources change their schemas:
//!
//! * per-attribute `AD` (attribute-dispensable) / `AR` (attribute-replaceable),
//! * per-relation `RD` / `RR`,
//! * per-condition `CD` / `CR`,
//! * per-view `VE` (view-extent): how the new extent may relate to the old
//!   one (`≈` no restriction, `≡` equal, `⊇` superset, `⊆` subset).
//!
//! All parameters default to `false` (indispensable / non-replaceable), as in
//! the paper's Fig. 3.
//!
//! The crate provides the AST ([`ast`]), a hand-written lexer ([`lexer`]) and
//! recursive-descent parser ([`parser`]) for the Fig. 2 syntax, a canonical
//! pretty-printer (via [`std::fmt::Display`]) and structural validation
//! ([`validate`]). Example accepted input:
//!
//! ```text
//! CREATE VIEW Asia-Customer (VE = '~') AS
//! SELECT C.Name, C.Address, C.Phone (AD = true, AR = true)
//! FROM Customer C (RR = true), FlightRes F
//! WHERE (C.Name = F.PName) AND (F.Dest = 'Asia') (CD = true)
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod validate;

pub use ast::{
    AttrEvolution, CondEvolution, ConditionItem, FromItem, RelEvolution, SelectItem, ViewDef,
    ViewExtent,
};
pub use error::{ParseError, ParseResult};
pub use parser::parse_view;
