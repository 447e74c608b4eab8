//! Sweep grids: declarative scenario grids and their expansion into cells.
//!
//! A grid is an ordered list of named axes, each with one or more string
//! values. The textual form is `axis=v1,v2;axis2=v3,...`:
//!
//! ```
//! use graf_bench::grid::Grid;
//!
//! let g = Grid::parse("app=boutique,social;slo=60,90;policy=hpa").unwrap();
//! assert_eq!(g.num_cells(), 4);
//! let cells = g.cells();
//! assert_eq!(cells[0].key(), "app=boutique/policy=hpa/slo=60");
//! assert_eq!(cells[0].get("slo"), Some("60"));
//! ```
//!
//! Expansion is row-major in axis declaration order (the last axis varies
//! fastest), but nothing downstream depends on that order: cell *keys* list
//! axes sorted by name, so seeds and report ordering are invariant to how
//! the spec happens to be written.

/// One grid axis: a name and its values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Axis {
    /// Axis name, e.g. `app`.
    pub name: String,
    /// The values the axis sweeps over, in declaration order.
    pub values: Vec<String>,
}

/// A declarative scenario grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grid {
    axes: Vec<Axis>,
}

/// Characters with structural meaning in grid specs and cell keys.
const RESERVED: &[char] = &['=', ',', ';', '/', '"', '\\'];

fn check_token(kind: &str, tok: &str) -> Result<(), String> {
    if tok.is_empty() {
        return Err(format!("empty {kind} in grid spec"));
    }
    if let Some(c) = tok.chars().find(|c| RESERVED.contains(c) || c.is_whitespace()) {
        return Err(format!("{kind} {tok:?} contains reserved character {c:?}"));
    }
    Ok(())
}

impl Grid {
    /// Parses a grid spec of the form `axis=v1,v2;axis2=v3`.
    ///
    /// Axis names must be unique; names and values must be non-empty and
    /// free of the structural characters `= , ; /` and whitespace.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut axes: Vec<Axis> = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, values) = part
                .split_once('=')
                .ok_or_else(|| format!("axis {part:?} is not of the form name=v1,v2"))?;
            let name = name.trim();
            check_token("axis name", name)?;
            if axes.iter().any(|a| a.name == name) {
                return Err(format!("duplicate axis {name:?}"));
            }
            let mut vals: Vec<String> = Vec::new();
            for v in values.split(',') {
                let v = v.trim();
                check_token("axis value", v)?;
                if vals.iter().any(|x| x == v) {
                    return Err(format!("duplicate value {v:?} on axis {name:?}"));
                }
                vals.push(v.to_string());
            }
            axes.push(Axis { name: name.to_string(), values: vals });
        }
        if axes.is_empty() {
            return Err("grid spec has no axes".to_string());
        }
        Ok(Self { axes })
    }

    /// The axes in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of cells the grid expands to (product of axis sizes).
    pub fn num_cells(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Expands the grid into cells, row-major in declaration order (the last
    /// axis varies fastest).
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.num_cells());
        let mut idx = vec![0usize; self.axes.len()];
        loop {
            let pairs: Vec<(String, String)> = self
                .axes
                .iter()
                .zip(&idx)
                .map(|(a, &i)| (a.name.clone(), a.values[i].clone()))
                .collect();
            out.push(Cell::new(pairs));
            // Odometer increment, last axis fastest.
            let mut k = self.axes.len();
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < self.axes[k].values.len() {
                    break;
                }
                idx[k] = 0;
            }
        }
    }
}

/// One cell of an expanded grid: an assignment of one value per axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// `(axis, value)` pairs sorted by axis name (the canonical order).
    pairs: Vec<(String, String)>,
}

impl Cell {
    /// Builds a cell from `(axis, value)` pairs (any order; stored sorted by
    /// axis name so keys are canonical).
    fn new(mut pairs: Vec<(String, String)>) -> Self {
        pairs.sort();
        Self { pairs }
    }

    /// The value assigned to `axis`, if the cell has that axis.
    pub fn get(&self, axis: &str) -> Option<&str> {
        self.pairs.iter().find(|(a, _)| a == axis).map(|(_, v)| v.as_str())
    }

    /// The canonical cell key: `axis=value` pairs sorted by axis name and
    /// joined with `/`, e.g. `app=boutique/policy=hpa/slo=60`. Seeds and
    /// report ordering both key off this string.
    pub fn key(&self) -> String {
        let parts: Vec<String> = self.pairs.iter().map(|(a, v)| format!("{a}={v}")).collect();
        parts.join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_expands_row_major() {
        let g = Grid::parse("a=1,2;b=x,y,z").unwrap();
        assert_eq!(g.num_cells(), 6);
        let cells = g.cells();
        assert_eq!(cells.len(), 6);
        // Last axis fastest.
        assert_eq!(cells[0].key(), "a=1/b=x");
        assert_eq!(cells[1].key(), "a=1/b=y");
        assert_eq!(cells[3].key(), "a=2/b=x");
    }

    #[test]
    fn keys_are_invariant_to_axis_declaration_order() {
        let g1 = Grid::parse("a=1;b=x").unwrap();
        let g2 = Grid::parse("b=x;a=1").unwrap();
        assert_eq!(g1.cells()[0].key(), g2.cells()[0].key());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Grid::parse("").is_err());
        assert!(Grid::parse("a").is_err());
        assert!(Grid::parse("a=").is_err());
        assert!(Grid::parse("a=1;a=2").is_err());
        assert!(Grid::parse("a=1,1").is_err());
        assert!(Grid::parse("a=x/y").is_err());
        assert!(Grid::parse("a b=1").is_err());
    }

    #[test]
    fn tolerates_spacing_and_trailing_separators() {
        let g = Grid::parse(" a = 1 , 2 ; b = x ; ").unwrap();
        assert_eq!(g.num_cells(), 2);
        assert_eq!(g.cells()[0].key(), "a=1/b=x");
    }

    #[test]
    fn cell_key_round_trips() {
        let c = Cell::new(vec![("b".into(), "y".into()), ("a".into(), "1".into())]);
        assert_eq!(c.key(), "a=1/b=y");
        // A key read as a grid spec, one value per axis, is that one cell.
        assert_eq!(Grid::parse(&c.key().replace('/', ";")).unwrap().cells(), vec![c]);
    }
}
