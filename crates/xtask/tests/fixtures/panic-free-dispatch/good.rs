//! Good: fallible decode maps to an error status; unwraps live only in
//! test code, which the lint exempts.
pub fn dispatch(args: &[u8]) -> Result<Vec<u8>, u32> {
    let first = *args.first().ok_or(1u32)?;
    let v = decode(args)?;
    Ok(vec![first, v as u8])
}

fn decode(args: &[u8]) -> Result<u32, u32> {
    args.get(1).map(|b| *b as u32).ok_or(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_is_fine_in_tests() {
        let out = dispatch(&[7, 9]).unwrap();
        assert_eq!(out[0], 7);
    }
}
