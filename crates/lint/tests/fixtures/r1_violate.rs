//! R1 fixture: public mutating fns that forget the epoch bump.
//! Linted as if it were `crates/dom/src/mutation.rs`.

pub struct Document {
    nodes: Vec<u32>,
}

impl Document {
    fn invalidate_indexes(&mut self) {
        self.nodes.clear();
    }

    pub fn append_child(&mut self, parent: u32, child: u32) { //~ R1
        self.nodes.push(parent + child);
    }

    pub fn set_tag(&mut self, tag_value: u32) { //~ R1
        let tag = tag_value;
        self.nodes.push(tag);
    }

    pub fn remove_child(&mut self, child: u32) {
        self.nodes.retain(|&n| n != child);
        self.invalidate_indexes();
    }
}
