#include "pjh/klass_segment.hh"

#include <cstring>

#include "nvm/nvm_device.hh"
#include "util/logging.hh"

namespace espresso {

bool
pjhRawHeaderValid(Oop o, Addr seg_base, std::size_t seg_size,
                  std::ptrdiff_t delta)
{
    if (!o.hasKlassImage())
        return false;
    const KlassImage *img = pjhRawImage(o, delta);
    Addr image = reinterpret_cast<Addr>(img);
    if (image < seg_base || image + sizeof(KlassImage) > seg_base + seg_size)
        return false;
    return img->pkr.magic == PersistentKlassRef::kMagic;
}

std::size_t
pjhRawObjectSize(Oop o, std::ptrdiff_t delta)
{
    const KlassImage *img = pjhRawImage(o, delta);
    if (img->isArray()) {
        std::size_t esz = elementSize(img->elemType());
        return alignUp(ObjectLayout::kArrayHeaderSize +
                           o.arrayLength() * esz,
                       kWordSize);
    }
    return alignUp(img->instanceSize, kWordSize);
}

KlassSegment::KlassSegment(NvmDevice *device, Addr base, std::size_t size,
                           PjhMetadata *meta, NameTable *names)
    : device_(device), base_(base), size_(size), meta_(meta), names_(names)
{}

Addr
KlassSegment::imageFor(const Klass *k) const
{
    std::lock_guard<std::recursive_mutex> g(*mu_);
    auto it = imageByLogicalId_.find(k->logicalId());
    return it == imageByLogicalId_.end() ? kNullAddr : it->second;
}

std::size_t
KlassSegment::imageCount() const
{
    std::size_t n = 0;
    names_->forEach([&n](NameEntry &e) {
        if (e.kind == static_cast<Word>(NameKind::kKlass))
            ++n;
    });
    return n;
}

Addr
KlassSegment::ensureImage(const Klass *k, KlassRegistry &registry)
{
    std::lock_guard<std::recursive_mutex> g(*mu_);
    if (Addr cached = imageFor(k))
        return cached;

    // The name table may know it from a previous attach of this
    // process; otherwise write a fresh image.
    if (NameEntry *e = names_->find(k->name(), NameKind::kKlass)) {
        Addr image = base_ + e->value;
        imageByLogicalId_[k->logicalId()] = image;
        return image;
    }
    return writeImage(k, registry);
}

Addr
KlassSegment::writeImage(const Klass *k, KlassRegistry &registry)
{
    if (k->name().size() > KlassImage::kMaxName)
        fatal("Klass segment: class name too long: " + k->name());

    // Supers first so superOff can be recorded.
    Word super_off = kNoneWord;
    if (k->super())
        super_off = ensureImage(k->super(), registry) - base_;

    std::size_t field_count = k->isArray() ? 0 : k->fields().size();
    std::size_t img_size =
        alignUp(KlassImage::sizeFor(field_count), kWordSize);
    Word top = meta_->klassSegTopOffset;
    if (top + img_size > size_)
        fatal("Klass segment: full while adding " + k->name());

    Addr image_addr = base_ + top;
    auto *img = reinterpret_cast<KlassImage *>(image_addr);
    std::memset(img, 0, img_size);
    img->pkr.magic = PersistentKlassRef::kMagic;
    img->pkr.runtimeKlass =
        registry.physicalFor(k, MemKind::kPersistent);
    img->totalSize = img_size;
    img->flags = 0;
    if (k->isArray()) {
        img->flags |= KlassImage::kFlagArray;
        img->flags |= Word(static_cast<std::uint8_t>(k->elemType()))
                      << KlassImage::kElemTypeShift;
    }
    if (k->persistentOnly())
        img->flags |= KlassImage::kFlagPersistentOnly;
    img->instanceSize = k->instanceSize();
    img->fieldCount = field_count;
    img->superOff = super_off;
    std::memcpy(img->name, k->name().c_str(), k->name().size());
    for (std::size_t i = 0; i < field_count; ++i) {
        const FieldDesc &f = k->fields()[i];
        if (f.name.size() > FieldImage::kMaxName)
            fatal("Klass segment: field name too long: " + f.name);
        FieldImage &fi = img->fields()[i];
        std::memcpy(fi.name, f.name.c_str(), f.name.size());
        fi.type = static_cast<std::uint32_t>(f.type);
        fi.offset = f.offset;
    }

    // Publication order (crash-consistent): image content, then the
    // segment top, then the name-table entry that makes it visible.
    device_->persist(image_addr, img_size);
    meta_->klassSegTopOffset = top + img_size;
    device_->persist(reinterpret_cast<Addr>(&meta_->klassSegTopOffset),
                     sizeof(Word));
    names_->insert(k->name(), NameKind::kKlass, image_addr - base_);

    imageByLogicalId_[k->logicalId()] = image_addr;
    return image_addr;
}

Klass *
KlassSegment::bindImage(Addr image_addr, KlassRegistry &registry)
{
    auto *img = reinterpret_cast<KlassImage *>(image_addr);
    if (img->pkr.magic != PersistentKlassRef::kMagic)
        panic("Klass segment: corrupted image during bind");

    std::string name(img->name);
    Klass *persistent_k = nullptr;

    if (img->isArray()) {
        FieldType et = img->elemType();
        if (et == FieldType::kRef) {
            // "[L<elem>;" — the element class must be resolvable.
            if (name.size() < 4 || name[0] != '[' || name[1] != 'L' ||
                name.back() != ';') {
                panic("Klass segment: malformed array class name " + name);
            }
            std::string elem_name = name.substr(2, name.size() - 3);
            Klass *elem = registry.find(elem_name);
            if (!elem) {
                // The element class may have its own image bound
                // later in this pass; bind it eagerly.
                NameEntry *e = names_->find(elem_name, NameKind::kKlass);
                if (!e)
                    fatal("loadHeap: element class " + elem_name +
                          " of " + name +
                          " is neither defined nor imaged");
                elem = bindImage(base_ + e->value, registry);
            }
            persistent_k =
                registry.arrayOfRefs(elem, MemKind::kPersistent);
        } else if (name == std::string("[") + fieldTypeCode(et)) {
            persistent_k = registry.arrayOf(et, MemKind::kPersistent);
        } else {
            // A non-canonically named primitive array (the PJH's
            // filler-array class): bind it to its own logical id so
            // it never shadows the canonical class's image.
            persistent_k =
                registry.arrayOfNamed(name, et, MemKind::kPersistent);
        }
    } else {
        // Rebuild the class definition from the image; inherited
        // fields belong to the (recursively bound) superclass.
        KlassDef def;
        def.name = name;
        def.persistentOnly = img->flags & KlassImage::kFlagPersistentOnly;
        std::size_t inherited = 0;
        if (img->superOff != kNoneWord) {
            Klass *super = bindImage(base_ + img->superOff, registry);
            def.superName = super->name();
            inherited = super->fields().size();
        }
        for (Word i = inherited; i < img->fieldCount; ++i) {
            const FieldImage &fi = img->fields()[i];
            def.fields.emplace_back(
                std::string(fi.name),
                static_cast<FieldType>(fi.type));
        }
        // define() validates shape against a pre-existing definition
        // and is fatal on mismatch (schema evolution unsupported).
        Klass *logical = registry.define(def);
        persistent_k = registry.physicalFor(logical, MemKind::kPersistent);
    }

    // In-place reinitialization: rewrite only the volatile slot.
    img->pkr.runtimeKlass = persistent_k;
    imageByLogicalId_[persistent_k->logicalId()] = image_addr;
    return persistent_k;
}

void
KlassSegment::bindAll(KlassRegistry &registry)
{
    std::lock_guard<std::recursive_mutex> g(*mu_);
    names_->forEach([this, &registry](NameEntry &e) {
        if (e.kind == static_cast<Word>(NameKind::kKlass))
            bindImage(base_ + e.value, registry);
    });
}

} // namespace espresso
