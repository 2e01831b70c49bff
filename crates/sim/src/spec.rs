//! The `key=value,…` reader behind every spec string ([`Spec`]).

use std::str::FromStr;

/// A spec string (`--faults`, `--workload`) split against a layer's key
/// table of at most 32 keys. Items are trimmed and empty ones skipped,
/// and each value sits in its key's row, so key order never matters.
/// Every error names the item: one without `=`, an unknown or repeated
/// key ([`Spec::read`]), or a key the layer never read because it does
/// not apply to the other keys ([`Spec::finish`]). Nothing is allocated.
pub struct Spec<'a> {
    names: &'a [&'a str],
    values: [Option<&'a str>; 32],
    /// Bit `row` is set while row `row` is given and unread.
    unread: u32,
}

impl<'a> Spec<'a> {
    /// Split `text` against the key table `names`.
    ///
    /// # Errors
    ///
    /// The first item without `=`, with an unknown key or a repeated one.
    pub fn read(text: &'a str, names: &'a [&'a str]) -> Result<Spec<'a>, String> {
        assert!(names.len() <= 32, "a key table has at most 32 keys");
        let mut spec = Spec {
            names,
            values: [None; 32],
            unread: 0,
        };
        for item in text.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let Some((key, value)) = item.split_once('=') else {
                return Err(format!("{item}: expected key=value"));
            };
            let (key, value) = (key.trim(), value.trim());
            let Some(row) = names.iter().position(|&n| n == key) else {
                return Err(format!("{item}: unknown key"));
            };
            if spec.values[row].replace(value).is_some() {
                return Err(format!("{key}={value}: key given twice"));
            }
            spec.unread |= 1 << row;
        }
        Ok(spec)
    }

    /// Row `row`'s value, if given; it counts as read.
    pub fn take(&mut self, row: usize) -> Option<&'a str> {
        self.unread &= !(1 << row);
        self.values[row]
    }

    /// `key`'s value, if given; it counts as read.
    pub fn get(&mut self, key: &str) -> Option<&'a str> {
        let row = self.names.iter().position(|&n| n == key);
        self.take(row.unwrap_or_else(|| panic!("'{key}' is not in the key table")))
    }

    /// `key`'s value parsed, or `default` when it is not given.
    ///
    /// # Errors
    ///
    /// `key=value: bad value` when the value does not parse.
    pub fn value<T: FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        let Some(text) = self.get(key) else {
            return Ok(default);
        };
        text.parse().map_err(|_| format!("{key}={text}: bad value"))
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// The first given key, in table order, that the layer never read.
    pub fn finish(&self) -> Result<(), String> {
        let row = self.unread.trailing_zeros() as usize;
        match self.values.get(row).copied().flatten() {
            Some(v) => Err(format!(
                "{}={v}: does not apply to the other keys",
                self.names[row]
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 3] = ["a", "b", "c"];

    #[test]
    fn values_land_in_their_rows_whatever_the_order() {
        for text in ["a=1,c=x", "c=x,a=1", " c = x ,, a=1 ,"] {
            let mut s = Spec::read(text, &NAMES).unwrap();
            assert_eq!(s.value("a", 0u32), Ok(1));
            assert_eq!(s.value("b", 7u32), Ok(7));
            assert_eq!(s.take(2), Some("x"));
            assert_eq!(s.finish(), Ok(()));
        }
    }

    #[test]
    fn each_refusal_names_the_item() {
        for (text, why) in [
            ("a=1,b", "b: expected key=value"),
            ("a=1,d=2", "d=2: unknown key"),
            ("a=1,b=2,a=3", "a=3: key given twice"),
        ] {
            assert_eq!(Spec::read(text, &NAMES).err().as_deref(), Some(why));
        }
        let mut s = Spec::read("c=5,b=4,a=3", &NAMES).unwrap();
        assert_eq!(s.value::<u8>("a", 0), Ok(3));
        assert_eq!(
            s.finish().unwrap_err(),
            "b=4: does not apply to the other keys"
        );
        let mut s = Spec::read("a=x", &NAMES).unwrap();
        assert_eq!(s.value::<u8>("a", 0).unwrap_err(), "a=x: bad value");
        // The last of 32 rows uses the top bit.
        let names: Vec<String> = (0..32).map(|i| format!("k{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut s = Spec::read("k31=1", &names).unwrap();
        assert!(s.finish().is_err());
        assert_eq!(s.take(31), Some("1"));
        assert!(s.finish().is_ok());
    }
}
