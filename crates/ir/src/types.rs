//! The NLC type system: fixed-width mote integer types and `bool`.

use std::fmt;

/// A primitive NLC type.
///
/// Arithmetic is evaluated in 64-bit and wrapped to the declared width on
/// store (matching C's implicit truncating conversions on 8/16-bit MCUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// Unsigned 8-bit.
    U8,
    /// Unsigned 16-bit (the native word of MSP430-class motes).
    U16,
    /// Unsigned 32-bit.
    U32,
    /// Signed 8-bit.
    I8,
    /// Signed 16-bit.
    I16,
    /// Signed 32-bit.
    I32,
    /// Boolean (conditions; not interchangeable with integers).
    Bool,
}

impl Ty {
    /// Parses a type name, returning `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Ty> {
        Some(match name {
            "u8" => Ty::U8,
            "u16" => Ty::U16,
            "u32" => Ty::U32,
            "i8" => Ty::I8,
            "i16" => Ty::I16,
            "i32" => Ty::I32,
            "bool" => Ty::Bool,
            _ => return None,
        })
    }

    /// Wraps a 64-bit computation result into this type's value range.
    ///
    /// Booleans normalize to 0/1.
    pub fn wrap(self, v: i64) -> i64 {
        match self {
            Ty::U8 => (v as u8) as i64,
            Ty::U16 => (v as u16) as i64,
            Ty::U32 => (v as u32) as i64,
            Ty::I8 => (v as i8) as i64,
            Ty::I16 => (v as i16) as i64,
            Ty::I32 => (v as i32) as i64,
            Ty::Bool => (v != 0) as i64,
        }
    }

    /// Bit width of the type (booleans are stored in one byte).
    pub fn bits(self) -> u32 {
        match self {
            Ty::U8 | Ty::I8 | Ty::Bool => 8,
            Ty::U16 | Ty::I16 => 16,
            Ty::U32 | Ty::I32 => 32,
        }
    }

    /// Size in bytes when stored in mote RAM.
    pub fn size_bytes(self) -> u32 {
        self.bits() / 8
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::U8 => "u8",
            Ty::U16 => "u16",
            Ty::U32 => "u32",
            Ty::I8 => "i8",
            Ty::I16 => "i16",
            Ty::I32 => "i32",
            Ty::Bool => "bool",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_round_trips_display() {
        for ty in [Ty::U8, Ty::U16, Ty::U32, Ty::I8, Ty::I16, Ty::I32, Ty::Bool] {
            assert_eq!(Ty::from_name(&ty.to_string()), Some(ty));
        }
        assert_eq!(Ty::from_name("u64"), None);
    }

    #[test]
    fn wrap_unsigned_truncates() {
        assert_eq!(Ty::U8.wrap(256), 0);
        assert_eq!(Ty::U8.wrap(257), 1);
        assert_eq!(Ty::U8.wrap(-1), 255);
        assert_eq!(Ty::U16.wrap(65536 + 5), 5);
        assert_eq!(Ty::U32.wrap(1 << 40), 0);
    }

    #[test]
    fn wrap_signed_wraps_around() {
        assert_eq!(Ty::I8.wrap(128), -128);
        assert_eq!(Ty::I8.wrap(-129), 127);
        assert_eq!(Ty::I16.wrap(40000), 40000 - 65536);
    }

    #[test]
    fn wrap_bool_normalizes() {
        assert_eq!(Ty::Bool.wrap(0), 0);
        assert_eq!(Ty::Bool.wrap(17), 1);
        assert_eq!(Ty::Bool.wrap(-1), 1);
    }

    #[test]
    fn sizes() {
        assert_eq!(Ty::U8.size_bytes(), 1);
        assert_eq!(Ty::U16.size_bytes(), 2);
        assert_eq!(Ty::I32.size_bytes(), 4);
        assert_eq!(Ty::Bool.size_bytes(), 1);
    }
}
