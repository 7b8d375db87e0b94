//! Runtime values and variable types.

use crate::error::EvalError;
use std::fmt;

/// A runtime value of a SLIM data component.
///
/// Clocks and continuous variables hold [`Value::Real`] values; the type
/// distinction lives in [`VarType`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// (Range-bounded) integer value.
    Int(i64),
    /// Real, clock or continuous value.
    Real(f64),
}

impl Value {
    /// Returns the Boolean payload.
    ///
    /// # Errors
    /// Returns [`EvalError::TypeConfusion`] if the value is not a Boolean.
    pub fn as_bool(self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(b),
            _ => Err(EvalError::TypeConfusion { context: format!("expected bool, got {self}") }),
        }
    }

    /// Returns the integer payload.
    ///
    /// # Errors
    /// Returns [`EvalError::TypeConfusion`] if the value is not an integer.
    pub fn as_int(self) -> Result<i64, EvalError> {
        match self {
            Value::Int(i) => Ok(i),
            _ => Err(EvalError::TypeConfusion { context: format!("expected int, got {self}") }),
        }
    }

    /// Returns the value as a float, coercing integers.
    ///
    /// # Errors
    /// Returns [`EvalError::TypeConfusion`] for Booleans.
    pub fn as_real(self) -> Result<f64, EvalError> {
        match self {
            Value::Real(r) => Ok(r),
            Value::Int(i) => Ok(i as f64),
            Value::Bool(_) => {
                Err(EvalError::TypeConfusion { context: format!("expected number, got {self}") })
            }
        }
    }

    /// Bitwise identity: same kind and same payload, reals compared by
    /// their bits (so `0.0` and `-0.0` differ, and a NaN equals itself).
    /// Anything computed from a value cannot change while this holds.
    pub fn same_bits(self, other: Value) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }

    /// True if this value is numeric (int or real).
    pub fn is_numeric(self) -> bool {
        matches!(self, Value::Int(_) | Value::Real(_))
    }

    /// Structural kind name, for diagnostics.
    pub fn kind(self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
        }
    }

    /// Numeric equality with int/real coercion; Booleans compare to Booleans.
    pub fn loosely_eq(self, other: Value) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (a, b) if a.is_numeric() && b.is_numeric() => {
                // unwrap: both sides numeric by the pattern guard
                a.as_real().unwrap() == b.as_real().unwrap()
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}

/// The declared type of a variable (SLIM data component).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarType {
    /// Boolean data component.
    Bool,
    /// Integer data component restricted to `[lo, hi]` (inclusive).
    Int {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Unbounded real data component (no dynamics).
    Real,
    /// Clock: real-valued, derivative 1 in every location, resettable.
    Clock,
    /// Continuous variable: real-valued with per-location constant
    /// derivative (linear-hybrid dynamics).
    Continuous,
}

impl VarType {
    /// Unrestricted integer type (full `i64` range).
    pub const INT: VarType = VarType::Int { lo: i64::MIN, hi: i64::MAX };

    /// True for clock and continuous variables, whose value changes under
    /// timed transitions.
    pub fn is_timed(self) -> bool {
        matches!(self, VarType::Clock | VarType::Continuous)
    }

    /// True if the type is numeric when read in expressions.
    pub fn is_numeric(self) -> bool {
        !matches!(self, VarType::Bool)
    }

    /// The default initial value for the type.
    pub fn default_value(self) -> Value {
        match self {
            VarType::Bool => Value::Bool(false),
            VarType::Int { lo, hi } => {
                if lo <= 0 && 0 <= hi {
                    Value::Int(0)
                } else {
                    Value::Int(lo)
                }
            }
            VarType::Real | VarType::Clock | VarType::Continuous => Value::Real(0.0),
        }
    }

    /// Checks that `v` inhabits this type (kind and integer range).
    pub fn admits(self, v: Value) -> bool {
        match (self, v) {
            (VarType::Bool, Value::Bool(_)) => true,
            (VarType::Int { lo, hi }, Value::Int(i)) => lo <= i && i <= hi,
            (VarType::Real | VarType::Clock | VarType::Continuous, Value::Real(_)) => true,
            // Allow integer literals to initialize real-kinded variables.
            (VarType::Real | VarType::Clock | VarType::Continuous, Value::Int(_)) => true,
            _ => false,
        }
    }

    /// Coerces `v` into this type's canonical representation (ints used to
    /// initialize real-kinded variables become reals).
    pub fn canonicalize(self, v: Value) -> Value {
        match (self, v) {
            (VarType::Real | VarType::Clock | VarType::Continuous, Value::Int(i)) => {
                Value::Real(i as f64)
            }
            _ => v,
        }
    }
}

impl fmt::Display for VarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarType::Bool => write!(f, "bool"),
            VarType::Int { lo, hi } => {
                if *lo == i64::MIN && *hi == i64::MAX {
                    write!(f, "int")
                } else {
                    write!(f, "int[{lo}..{hi}]")
                }
            }
            VarType::Real => write!(f, "real"),
            VarType::Clock => write!(f, "clock"),
            VarType::Continuous => write!(f, "continuous"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bits_compares_reals_bitwise() {
        assert!(Value::Real(1.5).same_bits(Value::Real(1.5)));
        assert!(!Value::Real(0.0).same_bits(Value::Real(-0.0)));
        assert!(Value::Real(f64::NAN).same_bits(Value::Real(f64::NAN)));
        assert!(!Value::Int(1).same_bits(Value::Real(1.0)));
        assert!(!Value::Bool(true).same_bits(Value::Bool(false)));
    }

    #[test]
    fn bool_accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Ok(true));
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::Bool(true).as_real().is_err());
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int(3).as_real(), Ok(3.0));
        assert_eq!(Value::Real(2.5).as_real(), Ok(2.5));
        assert!(Value::Real(2.5).as_int().is_err());
    }

    #[test]
    fn loose_equality_coerces() {
        assert!(Value::Int(2).loosely_eq(Value::Real(2.0)));
        assert!(!Value::Int(2).loosely_eq(Value::Bool(true)));
        assert!(Value::Bool(false).loosely_eq(Value::Bool(false)));
    }

    #[test]
    fn int_range_admission() {
        let t = VarType::Int { lo: 1, hi: 5 };
        assert!(t.admits(Value::Int(1)));
        assert!(t.admits(Value::Int(5)));
        assert!(!t.admits(Value::Int(0)));
        assert!(!t.admits(Value::Real(3.0)));
        assert_eq!(t.default_value(), Value::Int(1));
        assert_eq!(VarType::Int { lo: -3, hi: 3 }.default_value(), Value::Int(0));
    }

    #[test]
    fn clock_is_timed_and_real_kinded() {
        assert!(VarType::Clock.is_timed());
        assert!(VarType::Continuous.is_timed());
        assert!(!VarType::Real.is_timed());
        assert!(VarType::Clock.admits(Value::Real(0.0)));
        assert_eq!(VarType::Clock.canonicalize(Value::Int(2)), Value::Real(2.0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(VarType::Int { lo: 1, hi: 5 }.to_string(), "int[1..5]");
        assert_eq!(VarType::INT.to_string(), "int");
        assert_eq!(Value::Real(1.5).to_string(), "1.5");
    }
}
